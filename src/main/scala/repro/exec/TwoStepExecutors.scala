package repro.exec

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Candidate
import repro.core.Model._
import CompiledPlan._

/** The two-step baselines of the paper's §8.2, built on Catalyst
  * DataFrame joins: event sequences are *constructed* (materialized as
  * join rows — polynomially many in the number of events per window) and
  * only then aggregated.
  *
  * Both baselines run one executor over a compiled workload: each
  * segment's match relation is built once per `shareKey`, and each query
  * joins its segments' relations in order before counting per window.
  *
  *  - **Flink-like** (non-shared two-step): the Non-Shared compilation,
  *    so every query builds its own matches with an l-way self-join.
  *  - **SPASS-like** (shared two-step): the plan's compilation, so the
  *    match relation of a shared pattern is built once and reused by all
  *    queries containing it — sharing the construction, not the
  *    aggregation.
  */
object TwoStepExecutors {

  final case class RunResult(counts: DataFrame, matchesConstructed: Long, millis: Double)

  /** Joins match relations `(ws, key, t_first, t_last)` in order — same
    * window and key, the last event of one strictly before the first of
    * the next — yielding one row per sequence through all of them.
    */
  private def chain(rels: Seq[DataFrame]): DataFrame = {
    require(rels.nonEmpty)
    def tagged(i: Int): DataFrame =
      rels(i).select(col("ws").as(s"ws_$i"), col("key").as(s"key_$i"),
        col("t_first").as(s"f_$i"), col("t_last").as(s"l_$i"))
    var df = tagged(0).withColumnRenamed("ws_0", "ws").withColumnRenamed("key_0", "key")
    for (i <- 1 until rels.size) {
      val cond = col("ws") === col(s"ws_$i") && col("key") === col(s"key_$i") &&
        col(s"l_${i - 1}") < col(s"f_$i")
      df = df.join(tagged(i), cond).drop(s"ws_$i", s"key_$i")
    }
    df.select(col("ws"), col("key"),
      col("f_0").as("t_first"), col(s"l_${rels.size - 1}").as("t_last"))
  }

  /** Runs compiled workload `cw` in two steps. A segment's match
    * relation is the [[chain]] of its single-event relations
    * `(ws, key, t_first = t_last = time)`; a shared segment's relation is
    * built once and kept to the end, a private one is dropped after its
    * query. A compiled query is joined once and its rows are reported
    * under each of its ids. `matchesConstructed` counts the rows of every
    * relation built — the step that makes two-step approaches blow up
    * (Fig 13).
    */
  def run(events: DataFrame, cw: CompiledWorkload): RunResult = {
    val t0          = System.nanoTime()
    val win         = cw.window
    val windowsOf   = udf((t: Long) => win.windowsOf(t)) // each event in every window holding it
    val we          = events.withColumn("ws", explode(windowsOf(col("time"))))
    val built       = mutable.Map.empty[String, DataFrame]
    var constructed = 0L
    def relation(s: CompiledSegment): DataFrame =
      built.getOrElseUpdate(s.shareKey, {
        val m = chain(s.types.map { t =>
          we.filter(col("etype") === t).select(col("ws"), col("key"),
            col("time").as("t_first"), col("time").as("t_last"))
        }).persist()
        constructed += m.count() // sequences are materialized, then aggregated
        m
      })
    val counts = cw.queries.map { q =>
      val full = chain(q.segments.map(relation))
      val out  = full.groupBy(col("ws").as("window_start"))
        .agg(count(lit(1)).as("cnt"))
        .select(explode(typedLit(q.ids)).as("query_id"), col("window_start"), col("cnt"))
        .cache()
      out.count()
      q.segments.filterNot(_.shared).foreach(s => built.remove(s.shareKey).foreach(_.unpersist()))
      out
    }.reduce(_ union _)
    val materialized = counts.cache(); materialized.count()
    built.values.foreach(_.unpersist())
    RunResult(materialized, constructed, (System.nanoTime() - t0) / 1e6)
  }

  /** Flink-like executor: non-shared sequence construction + aggregation
    * per query.
    */
  def runFlinkLike(events: DataFrame, workload: Workload,
                   typeIds: Map[EventType, Int]): RunResult =
    run(events, CompiledPlan.nonShared(workload, typeIds))

  /** SPASS-like executor: match relations of the plan's shared patterns
    * are built once and reused; aggregation stays per query. An invalid
    * plan is refused by [[CompiledPlan.compile]].
    */
  def runSpassLike(events: DataFrame, workload: Workload,
                   plan: Seq[Candidate], typeIds: Map[EventType, Int]): RunResult =
    run(events, CompiledPlan.compile(workload, plan, typeIds))
}
