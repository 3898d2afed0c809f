package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors}
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

  final case class Params(
      numClusters: Seq[Int] = Seq(3, 9, 17, 26), // ×7 queries: 21..182
      numKeys: Int = 64,
      window: WindowSpec = WindowSpec(60, 6),
      maxOptions: Int = 64,
      soMaxLevelWidth: Long = 50000,
      seed: Long = 31)

  def run(spark: SparkSession, p: Params = Params()): ExperimentTable = {
    val duration = p.window.lengthSec * 2
    val rows = p.numClusters.map { nc =>
      val w       = WorkloadGen.trafficClusters(nc, p.window)
      val typeIds = CompiledPlan.typeDictionary(w)
      // Cost-model rates are per (window, key): the executor's state is
      // partitioned by the [vehicle] predicate, so per-key magnitudes
      // are what balance the quadratic vs cubic terms of Eqs 2–5.
      val profile = WorkloadGen.trafficClusterRates
      val rates = Rates(typeIds.keys.map { t =>
        t -> profile(t.dropWhile(_ != '_').drop(1))
      }.toMap)
      val epw     = rates.perType.values.sum * p.numKeys
      val nEvents = (epw * duration / p.window.lengthSec).toLong
      // Weighted stream matching the rate profile (dictionary order).
      val weights = typeIds.toSeq.sortBy(_._2).map { case (t, _) => rates(t) }
        .toIndexedSeq
      val events = StreamGen.weighted(spark, nEvents, duration, weights,
        p.numKeys, p.seed).cache()
      events.count()
      val greedy = Optimizer.greedy(w, rates)
      val sharon = Optimizer.sharon(w, rates,
        maxOptions = p.maxOptions, maxLevelWidth = p.soMaxLevelWidth)
      val g = OnlineExecutors.runSharon(spark, events, w, greedy.plan, typeIds)
      val s = OnlineExecutors.runSharon(spark, events, w, sharon.plan, typeIds)
      events.unpersist()
      Seq(w.size.toString,
        f"${greedy.score}%.3g", f"${sharon.score}%.3g",
        ms(g.millis), ms(s.millis), ratio(g.millis, s.millis),
        g.metrics.peakStateUnits.toString, s.metrics.peakStateUnits.toString,
        ratio(g.metrics.peakStateUnits.toDouble, s.metrics.peakStateUnits.toDouble),
        g.metrics.workUnits.toString, s.metrics.workUnits.toString,
        ratio(g.metrics.workUnits.toDouble, s.metrics.workUnits.toDouble),
        yesNo(sharon.completed))
    }
    ExperimentTable(
      "Fig 16: executor under greedy vs optimal plan (taxi-like stream)",
      Seq("queries", "GO score", "SO score", "greedy ms", "optimal ms", "lat ratio",
        "greedy mem", "optimal mem", "mem ratio",
        "greedy work", "optimal work", "work ratio", "SO complete"),
      rows)
  }
}
