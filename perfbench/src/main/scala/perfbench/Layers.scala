package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import repro.exec.{EngineMetrics, Event, KeyGroupEngine}
import repro.exec.CompiledPlan.CompiledWorkload

/** The engine kernel without Spark: one thread runs a [[KeyGroupEngine]]
  * over each collected key group, sorted as `flatMapSortedGroups` sorts.
  */
object Kernel {
  final case class Result(ms: Double, metrics: EngineMetrics, allocBytes: Long)

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def keyGroups(events: Seq[Event]): Vector[Array[Event]] =
    events.groupBy(_.key).toVector.sortBy(_._1)
      .map(_._2.sortBy(e => (e.time, e.etype)).toArray)

  def run(groups: Vector[Array[Event]], cw: CompiledWorkload, tracer: Tracer,
          label: String): Result = {
    val total = new EngineMetrics
    val a0    = threads.getCurrentThreadAllocatedBytes
    val t0    = System.nanoTime()
    groups.foreach { g =>
      tracer.span(s"$label.key_group") {
        val m = new EngineMetrics
        new KeyGroupEngine(cw, m).run(g.iterator).foreach(_ => ())
        total.merge(m)
      }
    }
    val ms = (System.nanoTime() - t0) / 1e6
    Result(ms, total, threads.getCurrentThreadAllocatedBytes - a0)
  }
}

/** Task metrics of Spark jobs, from a listener registered for one run. */
final class TaskStats extends SparkListener {
  import TaskStats.Task

  private val tasks = new ConcurrentLinkedQueue[Task]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) tasks.add(Task(e.stageId, m.executorRunTime, m.jvmGCTime,
      m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead))
  }

  def all: Vector[Task] = tasks.asScala.toVector

  def shuffleBytes: Long = all.map(_.shuffleWrite).sum
  def gcMs: Long         = all.map(_.gcMs).sum

  /** Max over median task time of the grouped stage: the one that both
    * reads the key shuffle and writes the count aggregation's shuffle.
    */
  def groupedStageSkew: Double = {
    val grouped = all.groupBy(_.stage).values
      .filter(ts => ts.exists(_.shuffleRead > 0) && ts.exists(_.shuffleWrite > 0))
      .maxByOption(_.size).getOrElse(Vector.empty)
    if (grouped.isEmpty) 0.0
    else {
      val times = grouped.map(_.runMs.toDouble)
      times.max / math.max(1.0, Stats.median(times))
    }
  }
}

object TaskStats {
  final case class Task(stage: Int, runMs: Long, gcMs: Long, shuffleWrite: Long, shuffleRead: Long)
}

/** Micro-batch progress of streaming queries. */
final class BatchStats extends StreamingQueryListener {
  private val progress = new ConcurrentLinkedQueue[StreamingQueryProgress]

  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
    progress.add(e.progress)
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()

  /** Progress of every micro-batch that carried input, in batch order,
    * after all events posted so far were delivered; then forgets them.
    */
  def drain(sc: SparkContext): Vector[StreamingQueryProgress] = {
    ListenerBusDrain(sc)
    val out = progress.asScala.toVector.filter(_.numInputRows > 0).sortBy(_.batchId)
    progress.clear()
    out
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty)
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
