package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.OnlineExecutors
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 14 reproduction: A-Seq versus Sharon under high-rate streams,
  * varying (a/e) events per window, (b/d/f) number of queries, and
  * (c/g/h) pattern length; latency, throughput, and peak memory.
  *
  * Paper setting: 200k–1.2M events/window, 20–120 queries, length 10–30;
  * Sharon wins 5–18× on latency and up to two orders of magnitude on
  * memory. Scaled here: events per window divided by ~10 (container vs
  * the paper's 128 GB server); sweep shapes unchanged. Latency is
  * wall-clock per run; memory is the engines' peak live state entries
  * (×16 B ≈ bytes); throughput is events × queries / second as in §8.1.
  */
object Fig14OnlineApproaches {

  final case class Params(
      eventsPerWindow: Seq[Int] = Seq(10000, 20000, 40000, 60000),
      numQueries: Seq[Int] = Seq(20, 40, 80, 120),
      patternLengths: Seq[Int] = Seq(10, 15, 20, 30),
      defaultEpw: Int = 20000,
      defaultQueries: Int = 20,
      defaultLen: Int = 10,
      numKeys: Int = 64,
      numBackbones: Int = 2,
      window: WindowSpec = WindowSpec(60, 6),
      seed: Long = 23)

  final case class Point(x: String, aseqMs: Double, sharonMs: Double,
                         aseqWork: Long, sharonWork: Long,
                         aseqMem: Long, sharonMem: Long, events: Long, queries: Int,
                         soCompleted: Boolean)

  private def point(spark: SparkSession, p: Params,
                    epw: Int, nq: Int, len: Int, label: String): Point = {
    // A tight alphabet around the pattern length keeps query overlap high
    // (the paper's workloads are "similar to q1–q7": many near-duplicate
    // route slices), which is where sharing pays off.
    val nTypes   = len + 6
    val duration = p.window.lengthSec * 2
    val nEvents  = epw.toLong * duration / p.window.lengthSec
    val workload = WorkloadGen.generate(nq, len, nTypes, p.numBackbones, p.window, p.seed)
    val typeIds  = StreamGen.typeIds(nTypes)
    // Cost-model rates in events/window (dimensionally consistent units
    // for Eq 5 — see StreamGen.perWindowRates).
    val rates    = StreamGen.perWindowRates(epw, nTypes)
    val so = Optimizer.sharon(workload, rates, maxOptions = 64, maxLevelWidth = 50000)
    val events = StreamGen.uniform(spark, nEvents, duration, nTypes, p.numKeys, p.seed).cache()
    events.count()
    val a = OnlineExecutors.runASeq(spark, events, workload, typeIds)
    val s = OnlineExecutors.runSharon(spark, events, workload, so.plan, typeIds)
    events.unpersist()
    Point(label, a.millis, s.millis, a.metrics.workUnits, s.metrics.workUnits,
      a.metrics.peakStateUnits, s.metrics.peakStateUnits, nEvents, nq, so.completed)
  }

  private def row(pt: Point): Seq[String] = {
    def thr(msTotal: Double): String =
      f"${pt.events * pt.queries / (msTotal / 1000)}%.0f"
    Seq(pt.x, ms(pt.aseqMs), ms(pt.sharonMs), ratio(pt.aseqMs, pt.sharonMs),
      thr(pt.aseqMs), thr(pt.sharonMs),
      pt.aseqWork.toString, pt.sharonWork.toString, ratio(pt.aseqWork.toDouble, pt.sharonWork.toDouble),
      pt.aseqMem.toString, pt.sharonMem.toString, ratio(pt.aseqMem.toDouble, pt.sharonMem.toDouble),
      yesNo(pt.soCompleted))
  }

  private val header = Seq("x", "A-Seq ms", "Sharon ms", "speedup",
    "A-Seq ev/s", "Sharon ev/s", "A-Seq work", "Sharon work", "work ratio",
    "A-Seq mem", "Sharon mem", "mem ratio", "SO complete")

  def runEventsSweep(spark: SparkSession, p: Params = Params()): ExperimentTable =
    ExperimentTable(
      "Fig 14(a,e): latency/throughput vs events per window (20 queries, len 10)",
      header,
      p.eventsPerWindow.map(e =>
        row(point(spark, p, e, p.defaultQueries, p.defaultLen, s"epw=$e"))))

  def runQueriesSweep(spark: SparkSession, p: Params = Params()): ExperimentTable =
    ExperimentTable(
      "Fig 14(b,d,f): latency/memory vs number of queries (epw=20k, len 10)",
      header,
      p.numQueries.map(q =>
        row(point(spark, p, p.defaultEpw, q, p.defaultLen, s"queries=$q"))))

  def runLengthSweep(spark: SparkSession, p: Params = Params()): ExperimentTable =
    ExperimentTable(
      "Fig 14(c,g,h): latency/memory vs pattern length (epw=20k, 20 queries)",
      header,
      p.patternLengths.map(l =>
        row(point(spark, p, p.defaultEpw, p.defaultQueries, l, s"len=$l"))))
}
