package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.{CompiledPlan, OnlineExecutors}
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
  * The queries sweep grows mostly by identical queries: the generator
  * cuts every query from 2 backbones, so 40–120 queries hold 14 distinct
  * patterns.
  */
object Fig14OnlineApproaches {

  private val DefaultEpw     = 20000
  private val DefaultQueries = 20
  private val DefaultLen     = 10
  private val NumKeys        = 64
  private val NumBackbones   = 2
  private val Window         = WindowSpec(60, 6)
  private val Seed           = 23L

  /** One sweep: its name on the command line, its table title, and per
    * point the row label, events per window, queries and pattern length.
    */
  final case class Sweep(name: String, title: String, settings: Seq[Setting])
  final case class Setting(label: String, epw: Int, queries: Int, len: Int)

  val sweeps: Seq[Sweep] = Seq(
    Sweep("events", "Fig 14(a,e): latency/throughput vs events per window (20 queries, len 10)",
      Seq(10000, 20000, 40000, 60000).map(e => Setting(s"epw=$e", e, DefaultQueries, DefaultLen))),
    Sweep("queries", "Fig 14(b,d,f): latency/memory vs number of queries (epw=20k, len 10)",
      Seq(20, 40, 80, 120).map(q => Setting(s"queries=$q", DefaultEpw, q, DefaultLen))),
    Sweep("length", "Fig 14(c,g,h): latency/memory vs pattern length (epw=20k, 20 queries)",
      Seq(10, 15, 20, 30).map(l => Setting(s"len=$l", DefaultEpw, DefaultQueries, l))))

  /** One setting's run of both engines, and the meters of A-Seq over the
    * `distinct` patterns of its queries (a third engine: how much of
    * Sharon's gain is evaluating identical queries once).
    */
  final case class Point(setting: Setting, aseqMs: Double, sharonMs: Double,
                         aseqWork: Long, sharonWork: Long,
                         aseqMem: Long, sharonMem: Long, events: Long,
                         soCompleted: Boolean, distinct: Int,
                         distinctWork: Long, distinctMem: Long)

  def run(spark: SparkSession, sweep: Sweep): Seq[Point] = sweep.settings.map { st =>
    // A tight alphabet around the pattern length keeps query overlap high
    // (the paper's workloads are "similar to q1–q7": many near-duplicate
    // route slices), which is where sharing pays off.
    val nTypes   = st.len + 6
    val duration = Window.lengthSec * 2
    val nEvents  = st.epw.toLong * duration / Window.lengthSec
    val workload = WorkloadGen.generate(st.queries, st.len, nTypes, NumBackbones, Window, Seed)
    val typeIds  = StreamGen.typeIds(nTypes)
    val so = Optimizer.sharon(workload, StreamGen.perWindowRates(st.epw, nTypes))
    withCached(StreamGen.uniform(spark, nEvents, duration, nTypes, NumKeys, Seed)) { events =>
      val a = OnlineExecutors.runASeq(spark, events, workload, typeIds)
      val s = OnlineExecutors.runSharon(spark, events, workload, so.plan, typeIds)
      val distinct = CompiledPlan.compile(workload, Nil, typeIds)
      val d = OnlineExecutors.run(spark, events, distinct)
      Point(st, a.millis, s.millis, a.metrics.workUnits, s.metrics.workUnits,
        a.metrics.peakStateUnits, s.metrics.peakStateUnits, nEvents, so.completed,
        distinct.queries.size, d.metrics.workUnits, d.metrics.peakStateUnits)
    }
  }

  def table(sweep: Sweep, points: Seq[Point]): ExperimentTable =
    ExperimentTable(sweep.title,
      Seq("x", "distinct", "A-Seq ms", "Sharon ms", "speedup",
        "A-Seq ev/s", "Sharon ev/s", "A-Seq work", "Sharon work", "work ratio",
        "A-Seq mem", "Sharon mem", "mem ratio",
        "A-Seq distinct work", "A-Seq distinct mem", "SO complete"),
      points.map { pt =>
        def thr(millis: Double) = throughput(pt.events, pt.setting.queries, millis)
        Seq(pt.setting.label, pt.distinct.toString,
          ms(pt.aseqMs), ms(pt.sharonMs), ratio(pt.aseqMs, pt.sharonMs),
          thr(pt.aseqMs), thr(pt.sharonMs),
          pt.aseqWork.toString, pt.sharonWork.toString, ratio(pt.aseqWork.toDouble, pt.sharonWork.toDouble),
          pt.aseqMem.toString, pt.sharonMem.toString, ratio(pt.aseqMem.toDouble, pt.sharonMem.toDouble),
          pt.distinctWork.toString, pt.distinctMem.toString, yesNo(pt.soCompleted))
      })
}
