package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.core.Optimizer
import repro.workload.{StreamGen, WorkloadGen}

/** SO completes under the default budgets of [[Optimizer]] on the largest
  * default point of every figure and on the benchmark's two query sets
  * (optimizers only, no Spark). The workloads are rebuilt from the
  * generators' parameters.
  */
class DefaultBudgetsSpec extends AnyFunSuite {

  private val window = WindowSpec(60, 6)

  /** Fig 14's generator: 2 backbones over `len + 6` types, query seed 23,
    * rates per window.
    */
  private def fig14(queries: Int, len: Int, epw: Int): (Workload, Rates) =
    (WorkloadGen.generate(queries, len, len + 6, 2, window, 23),
      StreamGen.perWindowRates(epw, len + 6))

  /** Fig 16's traffic clusters, with hot and rare street rates per window and key. */
  private def clusters(n: Int): (Workload, Rates) = {
    val w = WorkloadGen.trafficClusters(n, window)
    (w, WorkloadGen.clusterRates(w))
  }

  test(s"SO completes under the default budgets: Fig 15 at ${Fig15OptimizerComparison.sweep.max} queries") {
    val pt = Fig15OptimizerComparison.run(Seq(Fig15OptimizerComparison.sweep.max)).head
    assert(pt.so.completed && Optimizer.isValid(pt.so.plan))
  }

  private val fig14Largest = Fig14OnlineApproaches.sweeps
    .filter(s => s.name == "queries" || s.name == "length").map(_.settings.last)

  private val workloads: Seq[(String, (Workload, Rates))] =
    fig14Largest.map(st => s"Fig 14 at ${st.label}" -> fig14(st.queries, st.len, st.epw)) ++ Seq(
      s"Fig 16 at ${Fig16PlanQuality.sweep.max} clusters" -> clusters(Fig16PlanQuality.sweep.max),
      "perfbench q20-len10"         -> fig14(20, 10, 40000),
      "perfbench clusters63-stream" -> clusters(9))

  for ((name, (w, rates)) <- workloads) test(s"SO completes under the default budgets: $name") {
    val so = Optimizer.sharon(w, rates)
    assert(so.completed && Optimizer.isValid(so.plan))
  }
}
