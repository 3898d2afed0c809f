package repro.experiments

import repro.core.Optimizer
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}
import Harness._

/** Figure 15 reproduction: the three optimizers — Greedy (GO), Exhaustive
  * (EO), Sharon (SO) — varying the number of queries; per-phase latency
  * and memory of the optimization itself (no stream execution).
  *
  * Paper findings to reproduce in shape: EO fails to terminate beyond 20
  * queries and is orders of magnitude above GO at 20; SO completes
  * everywhere, costing orders of magnitude more than GO but orders less
  * than EO; most of GO's time is graph construction at high query counts.
  * E-commerce-like workloads (alphabet 50). Each optimizer reports the
  * median of repeated calls; EO is called once where it does not complete.
  */
object Fig15OptimizerComparison {

  /** Number of queries of each point. */
  val sweep: Seq[Int] = Seq(10, 20, 30, 50, 70)
  private val PatternLen   = 8
  private val NumTypes     = 50
  private val NumBackbones = 3
  private val Window       = WindowSpec(1200, 60)
  // About 3k events/s over the 1200 s window.
  private val TotalEventsPerWindow = 3000L * 1200
  private val Seed  = 29L
  // The optimizers take milliseconds: each is timed as the median of this
  // many calls, so one slow call does not decide which is faster.
  private val Calls = 5

  /** One query-count point: the three optimizers' results. */
  final case class Point(queries: Int, go: Optimizer.Result, so: Optimizer.Result,
                         eo: Optimizer.Result)

  def run(numQueries: Seq[Int]): Seq[Point] = {
    val rates = StreamGen.perWindowRates(TotalEventsPerWindow, NumTypes)
    def point(nq: Int, seed: Long): Point = {
      val w = WorkloadGen.generate(nq, PatternLen, NumTypes, NumBackbones, Window, seed)
      // The optimizers are called in turn, so a slow stretch of the host
      // falls on each of them alike. EO joins only where its first call
      // completed: a DNF may take its whole deadline.
      val eo     = Optimizer.exhaustive(w, rates)
      val rounds = Vector.fill(Calls)((Optimizer.greedy(w, rates), Optimizer.sharon(w, rates),
        if (eo.completed) Optimizer.exhaustive(w, rates) else eo))
      def median(rs: Vector[Optimizer.Result]): Optimizer.Result =
        rs.sortBy(_.totalMillis).apply(Calls / 2)
      Point(nq, median(rounds.map(_._1)), median(rounds.map(_._2)), median(rounds.map(_._3)))
    }
    // JIT warm-up on a small workload so the first measured point does
    // not pay classloading/compilation.
    point(6, Seed + 1)
    numQueries.map(point(_, Seed))
  }

  def table(points: Seq[Point]): ExperimentTable = {
    def phased(r: Optimizer.Result): String =
      r.phases.map(ph => f"${ph.name.split(" ").last}:${ph.millis}%.0f").mkString("+")
    val rows = points.map { case Point(nq, go, so, eo) =>
      Seq(nq.toString,
        ms(go.totalMillis), ms(so.totalMillis),
        if (eo.completed) ms(eo.totalMillis) else "DNF",
        go.peakMemUnits.toString, so.peakMemUnits.toString,
        if (eo.completed) eo.peakMemUnits.toString else "DNF",
        f"${go.score}%.0f", f"${so.score}%.0f" + (if (so.completed) "" else "*"),
        if (eo.completed) f"${eo.score}%.0f" else "DNF",
        phased(so))
    }
    ExperimentTable(
      "Fig 15: optimizer latency/memory — GO vs SO vs EO (EC-like workload)",
      Seq("queries", "GO ms", "SO ms", "EO ms", "GO mem", "SO mem", "EO mem",
        "GO score", "SO score", "EO score", "SO phases (ms)"),
      rows)
  }
}
