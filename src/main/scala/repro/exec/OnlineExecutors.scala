package repro.exec

import org.apache.spark.SparkException
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.Candidate
import repro.core.Model._
import CompiledPlan._

/** The online executors of the paper's §8.2 on Spark: the per-key shared
  * stateful operator is realized as `repartition(key).mapPartitions` —
  * each task holds its partition as one array, sorts it once by key, time
  * and type ([[Event.order]]), and runs its key groups back to back, one
  * [[KeyGroupEngine]] per key group evaluating the *whole workload* from
  * the compiled sharing graph, so shared segment states are reused across
  * queries inside the operator.
  * Each task sums its key groups' counts per `(query, window)`, and the
  * driver merges the tasks' sums; both sums are exact ([[WindowSums]]). No
  * Spark stage runs after the engine's.
  */
object OnlineExecutors {

  /** Workload-level result: `(query_id, window_start, cnt)` plus the
    * engine work/memory meters and wall-clock of the action.
    */
  final case class RunResult(counts: DataFrame, metrics: EngineMetrics, millis: Double)

  /** Runs the engine over `events` under compiled workload `cw`; the
    * returned counts are a local DataFrame, already materialized.
    */
  def run(spark: SparkSession, events: Dataset[Event], cw: CompiledWorkload): RunResult = {
    import spark.implicits._
    val acc = spark.sparkContext.collectionAccumulator[EngineMetrics]("engine-metrics")
    val perTask = events
      .repartition($"key")
      .mapPartitions { it =>
        val rows = it.toArray
        java.util.Arrays.sort(rows, Event.order)
        val sums   = new WindowSums
        val meters = new EngineMetrics // one meter per key group, merged
        var from   = 0
        while (from < rows.length) {
          var until = from + 1
          while (until < rows.length && rows(until).key == rows(from).key) until += 1
          val metrics = new EngineMetrics
          new KeyGroupEngine(cw, metrics).run(rows.iterator.slice(from, until)).foreach(sums.add)
          meters.merge(metrics)
          from = until
        }
        acc.add(meters)
        sums.iterator
      }
    val t0   = System.nanoTime()
    val sums = new WindowSums
    try perTask.collect().foreach(sums.add)
    catch { // an exact sum overflowed in a task: refuse as the driver's merge does
      case e: SparkException if e.getCause.isInstanceOf[ArithmeticException] => throw e.getCause
    }
    val counts = sums.iterator.map(r => (r.queryId, r.windowStart, r.count)).toSeq
      .toDF("query_id", "window_start", "cnt")
    val ms = (System.nanoTime() - t0) / 1e6
    val merged = new EngineMetrics
    acc.value.forEach(merged.merge)
    RunResult(counts, merged, ms)
  }

  /** Non-Shared method for the whole workload — A-Seq (§3.2): every query
    * evaluated independently, no shared segments.
    */
  def runASeq(spark: SparkSession, events: Dataset[Event], workload: Workload,
              typeIds: Map[EventType, Int]): RunResult =
    run(spark, events, CompiledPlan.nonShared(workload, typeIds))

  /** Sharon executor (§3.3): workload evaluated under a sharing plan. */
  def runSharon(spark: SparkSession, events: Dataset[Event], workload: Workload,
                plan: Seq[Candidate], typeIds: Map[EventType, Int]): RunResult =
    run(spark, events, CompiledPlan.compile(workload, plan, typeIds))
}
