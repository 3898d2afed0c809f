package repro.bench

import repro.SparkSpec
import repro.experiments.Fig16PlanQuality

/** Figure 16 bench: Sharon executor guided by a greedy vs an optimal
  * sharing plan. Prints the reproduction table and asserts the paper's
  * shape: the optimal plan's score dominates and its executor cost
  * (work/memory) is no worse, with the gap present at scale.
  */
class Fig16Bench extends SparkSpec {

  private val sweep = Fig16PlanQuality.sweep
  private lazy val points = Fig16PlanQuality.run(spark, sweep)

  test("Fig 16 table: executor under greedy vs optimal plan") {
    println(Fig16PlanQuality.table(points).render)
    assert(points.size == sweep.size)
  }

  test("shape: optimal plan score >= greedy plan score everywhere") {
    points.foreach { pt =>
      assert(pt.so.score + 1e-6 >= pt.go.score, s"at ${pt.queries} queries")
    }
  }

  test("shape: optimal plan does not increase model work; helps at scale") {
    val workRatios = points.map(pt => pt.greedy.workUnits.toDouble / pt.optimal.workUnits)
    info(s"greedy/optimal work ratios: $workRatios")
    assert(workRatios.forall(_ >= 0.95))
    assert(workRatios.max > 1.0,
      "the optimal plan should beat the greedy plan somewhere in the sweep")
  }
}
