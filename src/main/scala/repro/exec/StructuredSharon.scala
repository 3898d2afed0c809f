package repro.exec

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.exec.CompiledPlan.CompiledWorkload

/** Sharon as a Structured Streaming DAG: a `MemoryStream` source feeds
  * micro-batches through `foreachBatch` into the shared stateful operator
  * ([[KeyGroupEngine]] per key, one compiled sharing graph for all
  * queries). Window results are emitted as soon as the event-time
  * watermark passes a window's end — the streaming behaviour of §2.2's
  * runtime executor. Batch and streaming execution produce identical
  * counts (tested), since the engine is incremental by construction.
  *
  * State lives driver-side (local deployment): micro-batches are small,
  * cut on event time, and each is sorted once by key, time and type
  * ([[Event.order]]), which preserves the per-key in-order requirement of
  * the engine.
  */
object StructuredSharon {

  final case class StreamRunResult(
      emitted: Vector[QueryWindowCount],       // closed-window results, workload level
      emissionBatch: Vector[Long],             // batch id at which each was emitted
      metrics: EngineMetrics,
      batches: Long)

  /** Runs `events`, in any order, through a streaming query in
    * micro-batches of `batchSeconds` event time, each sorted on arrival.
    */
  def run(spark: SparkSession, events: Seq[Event], cw: CompiledWorkload,
          batchSeconds: Long): StreamRunResult = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val metrics = new EngineMetrics
    val engines = mutable.LongMap.empty[KeyGroupEngine]
    // Closed windows are per-key partial counts; sum across keys, exactly.
    // emissionBatch(i) is the batch that first emitted the i-th window.
    val emittedAgg    = new WindowSums
    val emissionBatch = mutable.ArrayBuffer.empty[Long]
    def emit(watermark: Long, batchId: Long): Unit =
      engines.values.foreach { eng =>
        eng.emitClosed(watermark).foreach { r =>
          if (emittedAgg.add(r)) emissionBatch += batchId
        }
      }

    val source = MemoryStream[Event]
    val query = source.toDS().writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[Event], batchId: Long) =>
        val rows = batch.collect()
        java.util.Arrays.sort(rows, Event.order)
        rows.foreach { e =>
          engines.getOrElseUpdate(e.key, new KeyGroupEngine(cw, metrics)).feed(e)
        }
        // Watermark strictly past all seen times.
        if (rows.nonEmpty) emit(rows.map(_.time).max + 1, batchId)
        ()
      }
      .start()

    var batches = 0L
    try {
      events.groupBy(_.time / batchSeconds).toSeq.sortBy(_._1).foreach { case (_, chunk) =>
        source.addData(chunk)
        query.processAllAvailable()
        batches += 1
      }
      emit(Long.MaxValue, batches) // final flush: close every remaining window
    } finally query.stop()

    StreamRunResult(emittedAgg.iterator.toVector, emissionBatch.toVector, metrics, batches)
  }
}
