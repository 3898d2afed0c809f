package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Model._
import repro.exec.{CompiledPlan, Event}
import repro.workload.{StreamGen, WorkloadGen}

/** The benchmark's workloads. Each fixes a query set and the shape of its
  * event stream; `--seed` draws the stream. Query sets are fixed (the
  * Fig 14 generator's own seed) so every stream seed keeps the sharing
  * structure a workload was chosen for, e.g. the finder cutoff at 120
  * queries.
  */
object Workloads {

  val window: WindowSpec = WindowSpec(60, 6)
  val numKeys            = 64
  val durationSec        = 600L // 100 slides: one micro-batch each on the stream path
  val maxOptions         = 64
  val maxLevelWidth      = 50000L
  private val querySeed  = 23L

  final case class Spec(name: String,
                        workload: Workload,
                        typeIds: Map[EventType, Int],
                        rates: Rates,
                        streaming: Boolean,
                        events: (SparkSession, Long) => Dataset[Event])

  /** Fig 14 generator: 16 types cut from 2 backbone routes, uniform stream. */
  private def fig14(name: String, numQueries: Int, eventsPerWindow: Long): Spec = {
    val numTypes = 16
    val nEvents  = eventsPerWindow * durationSec / window.lengthSec
    Spec(name,
      WorkloadGen.generate(numQueries, 10, numTypes, 2, window, querySeed),
      StreamGen.typeIds(numTypes),
      StreamGen.perWindowRates(eventsPerWindow, numTypes),
      streaming = false,
      (spark, seed) => StreamGen.uniform(spark, nEvents, durationSec, numTypes, numKeys, seed))
  }

  /** Fig 16 traffic clusters with hot and rare street types (rates are
    * per window and key, as in Fig16PlanQuality).
    */
  private def clusters(name: String, numClusters: Int): Spec = {
    val w       = WorkloadGen.trafficClusters(numClusters, window)
    val typeIds = CompiledPlan.typeDictionary(w)
    val profile = WorkloadGen.trafficClusterRates
    val rates   = Rates(typeIds.keys.map(t => t -> profile(t.dropWhile(_ != '_').drop(1))).toMap)
    val nEvents = (rates.perType.values.sum * numKeys * durationSec / window.lengthSec).toLong
    val weights = typeIds.toSeq.sortBy(_._2).map { case (t, _) => rates(t) }.toIndexedSeq
    Spec(name, w, typeIds, rates, streaming = true,
      (spark, seed) => StreamGen.weighted(spark, nEvents, durationSec, weights, numKeys, seed))
  }

  val all: Map[String, Spec] = Seq(
    fig14("q20-len10", 20, 40000),
    fig14("q120-len10", 120, 10000),
    clusters("clusters63-stream", 9),
  ).map(s => s.name -> s).toMap
}
