package repro.exec

import scala.collection.mutable
import repro.core.Model.WindowSpec
import CompiledPlan._

/** The Sharon runtime engine for one key group (paper §3) — shared online
  * event sequence aggregation without sequence construction.
  *
  * Events arrive in time order. Each *segment runtime* implements the
  * A-Seq kernel (§3.2, Fig 6): one count per segment prefix per
  * non-expired START event; shared segments are evaluated once for all
  * subscribing queries. Each *query runtime* implements count combination
  * (§3.3, Fig 7): when segment `S_j`'s START event `c` arrives it
  * snapshots the running combined count of `S_1..S_{j-1}` per overall
  * START `a`; when sequences of `S_j` starting at `c` complete with
  * increment `δ`, it adds `snap(a,c) × δ` to the combined count per `a`.
  * The END event of the last segment updates the result of every window
  * it falls into, restricted to STARTs `a` inside that window
  * (Fig 6(b) expiration semantics). Each count is kept once: the combined
  * count of `S_1` alone is `S_1`'s own full-segment count per START.
  *
  * Timestamp ties: sequence semantics require strictly increasing times
  * (Definition 1), so events sharing a timestamp are evaluated against
  * the state as of strictly-earlier times — reads happen for the whole
  * tie-batch first, count increments are committed afterwards, and every
  * reader skips STARTs not strictly earlier than the event it evaluates.
  *
  * Counts are exact: an update that would overflow a `Long` throws
  * `ArithmeticException` instead of wrapping around.
  */
final class KeyGroupEngine(cw: CompiledWorkload, metrics: EngineMetrics) {
  private val win: WindowSpec = cw.window

  /** Per-START-event state of one segment: `counts(j)` = number of
    * matches of the segment's first `j+1` types starting at this START
    * (`counts(0)` is identically 1 — the START itself).
    */
  final class StartState(val time: Long, nLevels: Int) {
    val counts = new Array[Long](nLevels)
    counts(0) = 1L
  }

  private final case class PendingInc(s: StartState, level: Int, delta: Long)

  /** Combination snapshot taken when a segment START arrives (§3.3).
    * Intermediate levels keep per-START values; the final level only
    * needs, per window the START can fall into, the sum of combined
    * counts of overall STARTs inside that window — `w/slide` numbers per
    * START instead of one per overall START. This is what keeps
    * single-sided sharing's cost and memory quadratic-free at the final
    * level (the literal Eq 5: the triple product arises only between two
    * combination levels, i.e. when both a prefix and a suffix exist).
    */
  private sealed trait Snap { def stateUnits: Long }
  private final case class MapSnap(m: mutable.AnyRefMap[StartState, Long]) extends Snap {
    def stateUnits: Long = m.size.toLong + 1
  }
  /** `sums(i)` = Σ counts of overall STARTs `a` with
    * `a.time >= firstWs + i*slide`, for the windows containing the
    * segment START this snapshot belongs to.
    */
  private final case class WinSnap(firstWs: Long, sums: Array[Long]) extends Snap {
    def stateUnits: Long = sums.length.toLong + 1
  }

  /** A-Seq state for one segment pattern (§3.2); shared across queries
    * when the plan says so (one instance per distinct shareKey).
    */
  final class SegmentRuntime(val types: Vector[Int]) {
    private val levelOf: Map[Int, Int] = types.zipWithIndex.toMap
    private val last = types.size - 1
    val starts = mutable.ArrayBuffer.empty[StartState]
    private var pendingIncs = List.empty[PendingInc]
    /** The current event's new START (null if none) and the STARTs whose
      * full-segment matches it completes; cleared once the event's
      * queries have run.
      */
    var started: StartState = null
    val completed = mutable.ArrayBuffer.empty[StartState]

    /** Full-segment matches from `s` completed by the current event: its
      * pre-batch count one level down (increments commit after the batch).
      */
    def completionDelta(s: StartState): Long = if (last == 0) 1L else s.counts(last - 1)

    /** Phase 1: evaluate `e` against pre-batch state. */
    def observe(e: Event): Unit =
      levelOf.get(e.etype) match {
        case None => ()
        case Some(0) =>
          started = new StartState(e.time, types.size)
          starts += started
          metrics.countUpdates += 1
          metrics.addState(types.size.toLong)
          // A single-type segment completes at its own START event.
          if (last == 0) completed += started
        case Some(j) =>
          var i = 0
          while (i < starts.size) {
            val s = starts(i)
            if (s.time < e.time) {
              metrics.countUpdates += 1
              val delta = s.counts(j - 1)
              if (delta > 0) {
                pendingIncs ::= PendingInc(s, j, delta)
                if (j == last) completed += s
              }
            }
            i += 1
          }
      }

    def clearEvent(): Unit = { started = null; completed.clear() }

    /** Phase 2: make the tie-batch's increments visible. */
    def commit(): Unit = {
      pendingIncs.foreach(p => p.s.counts(p.level) = Math.addExact(p.s.counts(p.level), p.delta))
      pendingIncs = Nil
    }

    /** Drop STARTs whose last containing window has closed (§3.2). Safe:
      * the window filter at result time already excludes them.
      */
    def expire(now: Long): Unit = {
      var i = 0
      while (i < starts.size) {
        if (win.lastWindowEnd(starts(i).time) <= now) {
          metrics.removeState(types.size.toLong)
          starts.remove(i)
        } else i += 1
      }
    }
  }

  /** Count-combination state of one query (§3.3). Level `j` corresponds
    * to the combined pattern `C_j = S_1..S_j`; `comb(j)` maps the overall
    * START `a` (a START of `S_1`) to the number of completed `C_{j+1}`
    * matches. Only levels `1..k-2` are kept here: level 0 is `S_1`'s own
    * count per START, and level `k-1` only feeds window results.
    */
  final class QueryRuntime(val q: CompiledQuery, val segs: Vector[SegmentRuntime]) {
    private val k = segs.size
    private val comb: Array[mutable.AnyRefMap[StartState, Long]] =
      Array.fill(k)(mutable.AnyRefMap.empty)
    // snaps(j): segment-j START c -> snapshot of level j-1 taken at c.
    private val snaps: Array[mutable.AnyRefMap[StartState, Snap]] =
      Array.fill(k)(mutable.AnyRefMap.empty)
    private var pendingComb = List.empty[(Int, StartState, Long)]
    val results = mutable.LongMap.empty[Long] // windowStart -> count

    /** Calls `f(a, n)` for every overall START `a` earlier than `t` whose
      * combined count `n` at level `j` is positive.
      */
    private def foreachCombined(j: Int, t: Long)(f: (StartState, Long) => Unit): Unit =
      if (j == 0) {
        val first = segs(0)
        val last  = first.types.size - 1
        first.starts.foreach { a =>
          val n = a.counts(last)
          if (a.time < t && n > 0) f(a, n)
        }
      } else comb(j).foreachEntry { (a, n) => if (n > 0) f(a, n) }

    private def addResult(ws: Long, sum: Long): Unit =
      if (sum != 0) {
        if (!results.contains(ws)) metrics.addState(1)
        results(ws) = Math.addExact(results.getOrElse(ws, 0L), sum)
      }

    /** Phase 1 for one event of the tie-batch, after every segment that
      * reacts to it has observed it.
      */
    def observe(e: Event): Unit = {
      // 1. Snapshots at new STARTs of segments j >= 1 (Fig 7: "when c3
      //    arrives, count(A,B) = 1"). The final level buckets the
      //    snapshot by slide index (WinSnap), so a completion reads one
      //    cell per window instead of iterating every overall START.
      var j = 1
      while (j < k) {
        val c = segs(j).started
        if (c != null) {
          if (j == k - 1) {
            val wss     = win.windowsOf(c.time)
            val firstWs = wss.head
            val buckets = new Array[Long](wss.size)
            var touched = 0
            foreachCombined(j - 1, c.time) { (a, n) =>
              if (a.time >= firstWs) {
                touched += 1
                // `a` covers every window start <= a.time in range.
                val pos = math.min(buckets.length - 1,
                  ((a.time - firstWs) / win.slideSec).toInt)
                buckets(pos) = Math.addExact(buckets(pos), n)
              }
            }
            // suffix-sum: sums(i) = Σ_{p >= i} buckets(p)
            var i = buckets.length - 2
            while (i >= 0) { buckets(i) = Math.addExact(buckets(i), buckets(i + 1)); i -= 1 }
            metrics.combMults += math.max(1, touched + buckets.length)
            metrics.addState(buckets.length.toLong + 1)
            snaps(j)(c) = WinSnap(firstWs, buckets)
          } else {
            val snap = mutable.AnyRefMap.empty[StartState, Long]
            foreachCombined(j - 1, c.time)((a, n) => snap(a) = n)
            metrics.combMults += math.max(1, snap.size)
            metrics.addState(snap.size.toLong + 1)
            snaps(j)(c) = MapSnap(snap)
          }
        }
        j += 1
      }
      // 2. Completions. A single-segment query's END updates every window
      //    it falls into (§3.2), filtered to STARTs inside the window; its
      //    completions come from distinct STARTs. Level j >= 1 multiplies
      //    against the snapshot taken at its START.
      if (k == 1) {
        val seg = segs(0)
        if (seg.completed.nonEmpty) win.windowsOf(e.time).foreach { ws =>
          // Same work unit as the shared path's per-(START, window)
          // combination lookups — metered so Non-Shared and Shared costs
          // are comparable.
          metrics.combMults += seg.completed.size
          var sum = 0L
          seg.completed.foreach { a =>
            if (a.time >= ws) sum = Math.addExact(sum, seg.completionDelta(a))
          }
          addResult(ws, sum)
        }
      }
      j = 1
      while (j < k) {
        val seg = segs(j)
        seg.completed.foreach { c =>
          val delta = seg.completionDelta(c)
          snaps(j).get(c) match {
            case Some(MapSnap(snap)) => // intermediate level
              snap.foreachEntry { (a, pref) =>
                metrics.combMults += 1
                pendingComb ::= ((j, a, Math.multiplyExact(pref, delta)))
              }
            case Some(WinSnap(firstWs, sums)) => // final level
              win.windowsOf(e.time).foreach { ws =>
                metrics.combMults += 1
                val idx = (ws - firstWs) / win.slideSec
                if (idx >= 0 && idx < sums.length)
                  addResult(ws, Math.multiplyExact(sums(idx.toInt), delta))
              }
            case None => ()
          }
        }
        j += 1
      }
    }

    def commit(): Unit = {
      pendingComb.foreach { case (j, a, inc) =>
        if (!comb(j).contains(a)) metrics.addState(1)
        comb(j)(a) = Math.addExact(comb(j).getOrElse(a, 0L), inc)
      }
      pendingComb = Nil
    }

    def expire(now: Long): Unit = {
      comb.foreach { m =>
        val dead = m.keysIterator.filter(a => win.lastWindowEnd(a.time) <= now).toList
        dead.foreach { a => m.remove(a); metrics.removeState(1) }
      }
      snaps.foreach { m =>
        val dead = m.keysIterator.filter(c => win.lastWindowEnd(c.time) <= now).toList
        dead.foreach { c =>
          val snap = m.remove(c)
          metrics.removeState(snap.map(_.stateUnits).getOrElse(1L))
        }
      }
    }
  }

  // --- wiring: one runtime per distinct shareKey; queries reference them.
  private val segmentRuntimes: mutable.LinkedHashMap[String, SegmentRuntime] =
    mutable.LinkedHashMap.empty
  private val queryRuntimes: Vector[QueryRuntime] = cw.queries.map { cq =>
    val segs = cq.segments.map(s =>
      segmentRuntimes.getOrElseUpdate(s.shareKey, new SegmentRuntime(s.types)))
    new QueryRuntime(cq, segs)
  }
  private val segArr = segmentRuntimes.values.toArray
  // Dispatch indexes: which segments / queries react to an event type.
  private val typeToSegs: Map[Int, Array[SegmentRuntime]] =
    segArr.flatMap(s => s.types.map(_ -> s))
      .groupBy(_._1).view.mapValues(_.map(_._2)).toMap
  private val typeToQueries: Map[Int, Array[QueryRuntime]] =
    queryRuntimes.toArray
      .flatMap(qr => qr.segs.flatMap(_.types).map(_ -> qr))
      .groupBy(_._1).view.mapValues(_.map(_._2)).toMap

  private var nextExpire = Long.MinValue

  private def processBatch(batch: List[Event]): Unit = {
    val events = batch.reverse // restore arrival order (cosmetic; ties commute)
    events.foreach { e =>
      metrics.events += 1
      // Phase 1a: each reacting segment runtime sees the event once —
      // this is the sharing: shared patterns are aggregated once (§3.3).
      val segs = typeToSegs.getOrElse(e.etype, null)
      if (segs != null) {
        var i = 0
        while (i < segs.length) { segs(i).observe(e); i += 1 }
        // Phase 1b: per-query combination against pre-batch state; only
        // queries whose pattern contains the type react.
        val qs = typeToQueries(e.etype)
        i = 0
        while (i < qs.length) { qs(i).observe(e); i += 1 }
        i = 0
        while (i < segs.length) { segs(i).clearEvent(); i += 1 }
      }
      // NB: within a tie-batch each event's observe() reads only
      // pre-batch counts (commits below happen after the whole batch),
      // preserving the strict e_i.time < e_j.time sequence semantics.
    }
    segArr.foreach(_.commit())
    queryRuntimes.foreach(_.commit())
  }

  private var batch = List.empty[Event]
  private var lastTime = Long.MinValue

  /** Feeds one event; events must arrive in non-decreasing time order.
    * Same-timestamp events are buffered into a tie-batch that is flushed
    * when time advances (or at [[results]]/[[emitClosed]]).
    */
  def feed(e: Event): Unit = {
    require(e.time >= lastTime, "events must arrive in time order")
    if (e.time != lastTime && batch.nonEmpty) { processBatch(batch); batch = Nil }
    lastTime = e.time
    if (e.time >= nextExpire) {
      segArr.foreach(_.expire(e.time))
      queryRuntimes.foreach(_.expire(e.time))
      nextExpire = e.time + win.slideSec
    }
    batch ::= e
  }

  private def flush(): Unit =
    if (batch.nonEmpty) { processBatch(batch); batch = Nil }

  /** Current per-key window counts of every query (flushes pending ties). */
  def results(): Iterator[QueryWindowCount] = {
    flush()
    for {
      qr        <- queryRuntimes.iterator
      (ws, cnt) <- qr.results.iterator
    } yield QueryWindowCount(qr.q.id, ws, cnt)
  }

  /** Streaming emission: returns and forgets the counts of all windows
    * fully before `watermark` (their results can no longer change).
    */
  def emitClosed(watermark: Long): Vector[QueryWindowCount] = {
    flush()
    val out = Vector.newBuilder[QueryWindowCount]
    queryRuntimes.foreach { qr =>
      val closed = qr.results.keysIterator
        .filter(ws => ws + win.lengthSec <= watermark).toList
      closed.foreach { ws =>
        out += QueryWindowCount(qr.q.id, ws, qr.results(ws))
        qr.results.remove(ws)
        metrics.removeState(1)
      }
    }
    out.result()
  }

  /** Processes a complete, time-sorted key group and returns the per-key
    * window counts of every query.
    */
  def run(events: Iterator[Event]): Iterator[QueryWindowCount] = {
    events.foreach(feed)
    results()
  }
}
