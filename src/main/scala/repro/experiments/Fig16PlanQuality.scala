package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, EngineMetrics, OnlineExecutors}
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 16 reproduction: executor latency and memory when guided by a
  * greedily chosen plan (GWMIN) versus an optimal plan (Sharon
  * optimizer), varying the number of queries; taxi-like stream.
  *
  * Paper finding: at 180 queries the optimal plan halves latency and
  * cuts memory 3-fold versus the greedy plan; the gap widens with the
  * workload size. The workload replicates the paper's own traffic
  * example (q1–q7, Fig 1) into independent clusters, with hot trunk /
  * rare side street rates under which the Fig 4 conflict structure is
  * live and GWMIN's ratio heuristic picks the Example 12 trap (the hub
  * candidate p1) in every cluster. The stream is type-weighted to match
  * the rate profile.
  */
object Fig16PlanQuality {

  /** Number of traffic clusters of each point, ×7 queries: 21..182. */
  val sweep: Seq[Int] = Seq(3, 9, 17, 26)
  private val NumKeys = 64
  private val Window  = WindowSpec(60, 6)
  private val Seed    = 31L

  /** One workload size: both optimizers' results, the executor's
    * wall-clock and meters under each one's plan, and the meters of A-Seq
    * over the workload's `distinct` patterns.
    */
  final case class Point(queries: Int, go: Optimizer.Result, so: Optimizer.Result,
                         greedyMs: Double, optimalMs: Double,
                         greedy: EngineMetrics, optimal: EngineMetrics,
                         distinct: Int, aseqDistinct: EngineMetrics)

  def run(spark: SparkSession, numClusters: Seq[Int]): Seq[Point] = {
    val duration = Window.lengthSec * 2
    numClusters.map { nc =>
      val w       = WorkloadGen.trafficClusters(nc, Window)
      val typeIds = CompiledPlan.typeDictionary(w)
      val rates   = WorkloadGen.clusterRates(w)
      val epw     = rates.perType.values.sum * NumKeys
      val nEvents = (epw * duration / Window.lengthSec).toLong
      // Weighted stream matching the rate profile (dictionary order).
      val weights = typeIds.toSeq.sortBy(_._2).map { case (t, _) => rates(t) }
        .toIndexedSeq
      withCached(StreamGen.weighted(spark, nEvents, duration, weights, NumKeys, Seed)) { events =>
        val go = Optimizer.greedy(w, rates)
        val so = Optimizer.sharon(w, rates)
        val g = OnlineExecutors.runSharon(spark, events, w, go.plan, typeIds)
        val s = OnlineExecutors.runSharon(spark, events, w, so.plan, typeIds)
        val distinct = CompiledPlan.compile(w, Nil, typeIds)
        val d = OnlineExecutors.run(spark, events, distinct)
        Point(w.size, go, so, g.millis, s.millis, g.metrics, s.metrics,
          distinct.queries.size, d.metrics)
      }
    }
  }

  def table(points: Seq[Point]): ExperimentTable =
    ExperimentTable(
      "Fig 16: executor under greedy vs optimal plan (taxi-like stream)",
      Seq("queries", "distinct", "GO score", "SO score", "greedy ms", "optimal ms", "lat ratio",
        "greedy mem", "optimal mem", "mem ratio",
        "greedy work", "optimal work", "work ratio",
        "A-Seq distinct work", "A-Seq distinct mem", "SO complete"),
      points.map { pt =>
        val (g, s, d) = (pt.greedy, pt.optimal, pt.aseqDistinct)
        Seq(pt.queries.toString, pt.distinct.toString,
          f"${pt.go.score}%.3g", f"${pt.so.score}%.3g",
          ms(pt.greedyMs), ms(pt.optimalMs), ratio(pt.greedyMs, pt.optimalMs),
          g.peakStateUnits.toString, s.peakStateUnits.toString,
          ratio(g.peakStateUnits.toDouble, s.peakStateUnits.toDouble),
          g.workUnits.toString, s.workUnits.toString,
          ratio(g.workUnits.toDouble, s.workUnits.toDouble),
          d.workUnits.toString, d.peakStateUnits.toString, yesNo(pt.so.completed))
      })
}
