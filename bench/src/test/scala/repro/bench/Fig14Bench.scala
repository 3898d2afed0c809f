package repro.bench

import repro.SparkSpec
import repro.experiments.Fig14OnlineApproaches
import repro.experiments.Fig14OnlineApproaches.Point

/** Figure 14 bench: A-Seq vs Sharon across the three paper sweeps.
  * Prints the reproduction tables and asserts the paper's shape: Sharon's
  * advantage (work and memory) grows with sharing opportunities — more
  * queries, more events, longer patterns.
  */
class Fig14Bench extends SparkSpec {

  private def sweep(name: String) = Fig14OnlineApproaches.sweeps.find(_.name == name).get
  private def printed(name: String): Seq[Point] = {
    val s   = sweep(name)
    val pts = Fig14OnlineApproaches.run(spark, s)
    println(Fig14OnlineApproaches.table(s, pts).render)
    pts
  }
  private def workRatio(pt: Point) = pt.aseqWork.toDouble / pt.sharonWork
  private lazy val queriesPoints = printed("queries")

  test("Fig 14(a,e) table: events-per-window sweep") {
    assert(printed("events").size == sweep("events").settings.size)
  }

  test("Fig 14(b,d,f) table: query-count sweep; Sharon work advantage grows") {
    val workRatios = queriesPoints.map(workRatio)
    info(s"work ratios across query counts: $workRatios")
    assert(workRatios.forall(_ >= 1.0), "sharing must never add model work")
    assert(workRatios.last > workRatios.head,
      "Sharon's advantage should grow with the number of queries (paper: 5x -> 18x)")
  }

  test("Fig 14(c,g,h) table: pattern-length sweep") {
    assert(printed("length").map(workRatio).forall(_ >= 1.0))
  }

  test("shape: Sharon uses less peak memory than A-Seq at high query counts") {
    val pt       = queriesPoints.find(_.setting.queries == 80).get
    val memRatio = pt.aseqMem.toDouble / pt.sharonMem
    info(f"A-Seq/Sharon memory ratio at 80 queries: $memRatio%.2f")
    assert(memRatio > 1.0)
  }
}
