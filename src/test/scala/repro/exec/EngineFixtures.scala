package repro.exec

import scala.util.Random
import repro.core.Candidate
import repro.core.Model._
import repro.exec.CompiledPlan._

/** Helpers for engine-level tests: direct (Spark-free) engine runs and a
  * brute-force sequence counter as ground truth.
  */
object EngineFixtures {

  /** Runs one key group through the engine, same-time events ordered by
    * `tie`; returns (queryId, windowStart) -> count plus the metrics.
    */
  def runEngine(cw: CompiledWorkload, events: Seq[Event],
                tie: Event => Int = _.etype): (Map[(Int, Long), Long], EngineMetrics) = {
    val m      = new EngineMetrics
    val engine = new KeyGroupEngine(cw, m)
    val res = engine.run(events.sortBy(e => (e.time, tie(e))).iterator)
      .map(r => (r.queryId, r.windowStart) -> r.count).toMap
    (res, m)
  }

  /** Multi-key variant: groups by key, sums per-key results. */
  def runEngineMultiKey(cw: CompiledWorkload, events: Seq[Event],
                        tie: Event => Int = _.etype): Map[(Int, Long), Long] = {
    val perKey = events.groupBy(_.key).toSeq.map { case (_, evs) =>
      runEngine(cw, evs, tie)._1
    }
    perKey.flatten.groupBy(_._1).view.mapValues(_.map(_._2).sum).toMap
      .filter(_._2 != 0)
  }

  /** Brute-force ground truth: enumerates every event sequence (same key,
    * strictly increasing times, all inside the window) per window.
    */
  def bruteCount(events: Seq[Event], pattern: Vector[Int], win: WindowSpec): Map[Long, Long] = {
    if (events.isEmpty) return Map.empty
    val maxT = events.map(_.time).max
    val byKey = events.groupBy(_.key)
    val out = for {
      ws <- 0L to (maxT / win.slideSec) * win.slideSec by win.slideSec
    } yield {
      var total = 0L
      for ((_, evs) <- byKey) {
        val inWin = evs.filter(e => e.time >= ws && e.time < ws + win.lengthSec)
        def count(pos: Int, after: Long): Long =
          if (pos == pattern.size) 1L
          else inWin.iterator
            .filter(e => e.etype == pattern(pos) && e.time > after)
            .map(e => count(pos + 1, e.time)).sum
        total += count(0, Long.MinValue)
      }
      ws -> total
    }
    out.filter(_._2 > 0).toMap
  }

  /** Brute-force counts for every query of a workload. */
  def bruteWorkload(events: Seq[Event], workload: Workload,
                    typeIds: Map[EventType, Int]): Map[(Int, Long), Long] =
    workload.queries.flatMap { q =>
      bruteCount(events, q.pattern.types.map(typeIds), workload.window)
        .map { case (ws, c) => (q.id, ws) -> c }
    }.toMap

  /** Random event stream over `numTypes` types / `numKeys` keys. */
  def randomEvents(seed: Long, n: Int, maxTime: Long, numTypes: Int,
                   numKeys: Int): Seq[Event] = {
    val rnd = new Random(seed)
    (0 until n).map { _ =>
      Event(rnd.nextInt(numKeys).toLong, rnd.nextLong(maxTime + 1), rnd.nextInt(numTypes))
    }
  }

  /** A candidate for plan-driven compilation in tests (weight irrelevant
    * to execution).
    */
  def candidate(w: Workload, p: Pattern, qids: Set[Int]): Candidate =
    Candidate(p, w.queries.filter(q => qids.contains(q.id)), 1.0)
}
