package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors, TwoStepExecutors}
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 13 reproduction: two-step (Flink-like, SPASS-like) versus
  * online (A-Seq, Sharon) approaches on a Linear-Road-like stream,
  * varying the number of events per window; latency and throughput.
  *
  * Paper setting: LR data set, up to 7k events/window; Flink fails above
  * 6k, SPASS above 7k (41 min/window), online approaches are ~5 orders of
  * magnitude faster. Scaled here: the traffic workload q1–q7 over a
  * 60 s / 30 s window; two-step runs above `TwoStepCutoff` events/window
  * are reported DNF instead of hanging the bench (the paper reports the
  * same as "does not terminate").
  */
object Fig13TwoStepVsOnline {

  /** Events per window of each point. */
  val sweep: Seq[Int] = Seq(500, 1000, 2000, 4000, 8000)
  private val TwoStepCutoff = 8000
  private val Window = WindowSpec(60, 30)
  private val NumKeys = 20
  private val Seed = 17L

  /** One events/window point. Two-step fields are `None` (DNF) above
    * `TwoStepCutoff`; `*Constructed` counts the sequences each two-step
    * baseline materialized.
    */
  final case class Point(eventsPerWindow: Int, events: Long, queries: Int,
                         flinkMs: Option[Double], spassMs: Option[Double],
                         aseqMs: Double, sharonMs: Double,
                         flinkConstructed: Option[Long], spassConstructed: Option[Long])

  def run(spark: SparkSession, eventsPerWindow: Seq[Int]): Seq[Point] = {
    val workload = WorkloadGen.traffic(Window)
    val typeIds  = CompiledPlan.typeDictionary(workload)
    val nTypes   = typeIds.size
    val duration = Window.lengthSec * 2
    def point(epw: Int): Point = {
      val nEvents = epw.toLong * duration / Window.lengthSec
      withCached(StreamGen.linearRoadLike(spark, nEvents, duration, nTypes, NumKeys, Seed)) { events =>
        val eventsDf = events.toDF()
        val plan = Optimizer.sharon(workload, Rates.perWindow(epw, typeIds.keys)).plan
        val a = OnlineExecutors.runASeq(spark, events, workload, typeIds)
        val s = OnlineExecutors.runSharon(spark, events, workload, plan, typeIds)
        val twoStep = Option.when(epw <= TwoStepCutoff)(
          (TwoStepExecutors.runFlinkLike(eventsDf, workload, typeIds),
            TwoStepExecutors.runSpassLike(eventsDf, workload, plan, typeIds)))
        Point(epw, nEvents, workload.size,
          twoStep.map(_._1.millis), twoStep.map(_._2.millis), a.millis, s.millis,
          twoStep.map(_._1.matchesConstructed), twoStep.map(_._2.matchesConstructed))
      }
    }
    // While Spark and the JIT warm up, a point's time follows its position
    // in the sweep, not its size: the first pass is discarded, and only
    // the second, at steady state, is reported.
    eventsPerWindow.foreach(point)
    eventsPerWindow.map(point)
  }

  def table(points: Seq[Point]): ExperimentTable = {
    val rows = points.map { pt =>
      def thr(millis: Double) = throughput(pt.events, pt.queries, millis)
      Seq(pt.eventsPerWindow.toString,
        pt.flinkMs.map(ms).getOrElse("DNF"), pt.spassMs.map(ms).getOrElse("DNF"),
        ms(pt.aseqMs), ms(pt.sharonMs),
        pt.flinkMs.map(thr).getOrElse("DNF"), pt.spassMs.map(thr).getOrElse("DNF"),
        thr(pt.aseqMs), thr(pt.sharonMs))
    }
    ExperimentTable(
      "Fig 13: two-step vs online (LR-like stream, traffic workload)",
      Seq("events/window", "Flink-like ms", "SPASS-like ms", "A-Seq ms", "Sharon ms",
        "Flink ev/s", "SPASS ev/s", "A-Seq ev/s", "Sharon ev/s"),
      rows)
  }
}
