package repro.bench

import repro.SparkSpec
import repro.experiments.Fig14OnlineApproaches
import repro.experiments.Fig14OnlineApproaches.Params

/** Figure 14 bench: A-Seq vs Sharon across the three paper sweeps.
  * Prints the reproduction tables and asserts the paper's shape: Sharon's
  * advantage (work and memory) grows with sharing opportunities — more
  * queries, more events, longer patterns.
  */
class Fig14Bench extends SparkSpec {

  private val p = Params()
  private lazy val queriesTable = Fig14OnlineApproaches.runQueriesSweep(spark, p)

  test("Fig 14(a,e) table: events-per-window sweep") {
    val t = Fig14OnlineApproaches.runEventsSweep(spark, p)
    println(t.render)
    assert(t.rows.size == p.eventsPerWindow.size)
  }

  test("Fig 14(b,d,f) table: query-count sweep; Sharon work advantage grows") {
    println(queriesTable.render)
    val workRatios = queriesTable.rows.map(r => r(8).toDouble) // work ratio column
    info(s"work ratios across query counts: $workRatios")
    assert(workRatios.forall(_ >= 1.0), "sharing must never add model work")
    assert(workRatios.last > workRatios.head,
      "Sharon's advantage should grow with the number of queries (paper: 5x -> 18x)")
  }

  test("Fig 14(c,g,h) table: pattern-length sweep") {
    val t = Fig14OnlineApproaches.runLengthSweep(spark, p)
    println(t.render)
    val workRatios = t.rows.map(r => r(8).toDouble)
    assert(workRatios.forall(_ >= 1.0))
  }

  test("shape: Sharon uses less peak memory than A-Seq at high query counts") {
    val memRatio = queriesTable.rows.find(_.head == "queries=80").get(11).toDouble
    info(s"A-Seq/Sharon memory ratio at 80 queries: $memRatio")
    assert(memRatio > 1.0)
  }
}
