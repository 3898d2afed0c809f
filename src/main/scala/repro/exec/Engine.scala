package repro.exec

import scala.collection.mutable
import repro.core.Model.WindowSpec
import CompiledPlan._
import KeyGroupEngine._

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
  * (Definition 1), so events sharing a timestamp must not see each other's
  * updates. An arriving event is only recorded, as a new START or as a
  * pending level. When time advances (or at [[results]]/[[emitClosed]])
  * the timestamp's phases run, each reading state its timestamp has not
  * written yet: (1) queries snapshot at the new STARTs from earlier STARTs;
  * (2) segments advance their earlier STARTs, highest level first, record
  * the completions, and admit the new STARTs; (3) queries combine the
  * completions; (4) the per-timestamp state is cleared.
  *
  * Counts are exact: an update that would overflow a `Long` throws
  * `ArithmeticException` instead of wrapping around.
  */
final class KeyGroupEngine(cw: CompiledWorkload, metrics: EngineMetrics) {
  private val win: WindowSpec = cw.window

  /** A-Seq state for one segment pattern (§3.2); shared across queries
    * when the plan says so (one instance per distinct shareKey).
    */
  final class SegmentRuntime(val types: Vector[Int]) {
    private val last = types.size - 1
    val starts  = mutable.ArrayBuffer.empty[StartState]          // live STARTs, time-ordered
    val readers = mutable.ArrayBuffer.empty[(QueryRuntime, Int)] // (query, position in it)
    // Per timestamp: new STARTs (joining `starts` in phase 2), events per
    // level j >= 1, and completing STARTs, once per completing event.
    val started      = mutable.ArrayBuffer.empty[StartState]
    private val hits = new Array[Int](types.size)
    val completed    = mutable.ArrayBuffer.empty[StartState]
    private var idle = true

    def arrive(time: Long, level: Int): Unit = {
      if (idle) { idle = false; busy += this }
      if (level == 0) started += new StartState(time, types.size) else hits(level) += 1
    }

    /** Phase 2: each level-`j` event adds every earlier START's count one
      * level down. Levels go highest first, so each reads the count as of
      * the previous timestamp.
      */
    def advance(): Unit = {
      var j = last
      while (j > 0) {
        val h = hits(j)
        if (h > 0) {
          metrics.countUpdates += h.toLong * starts.size
          var i = 0
          while (i < starts.size) {
            val s     = starts(i)
            val delta = s.counts(j - 1)
            if (delta > 0) {
              s.counts(j) = Math.addExact(s.counts(j), Math.multiplyExact(h.toLong, delta))
              if (j == last) {
                s.delta = delta
                var m = 0; while (m < h) { completed += s; m += 1 }
              }
            }
            i += 1
          }
        }
        j -= 1
      }
      // A single-type segment completes at its own START event.
      if (last == 0) { started.foreach(_.delta = 1L); completed ++= started }
      metrics.countUpdates += started.size
      metrics.addState(started.size.toLong * types.size)
      starts ++= started
    }

    def clear(): Unit = {
      started.clear(); java.util.Arrays.fill(hits, 0); completed.clear(); idle = true
    }

    /** Drop STARTs whose last containing window has closed (§3.2). Safe:
      * the window filter at result time already excludes them. STARTs are
      * time-ordered, so the expired ones form a prefix.
      */
    def expire(now: Long): Unit = {
      var n = 0
      while (n < starts.size && win.lastWindowEnd(starts(n).time) <= now) n += 1
      metrics.removeState(n.toLong * types.size)
      starts.remove(0, n)
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
    val results = mutable.LongMap.empty[Long] // windowStart -> count

    /** Calls `f(a, n)` for every overall START `a` whose combined count `n`
      * at level `j` is positive. Level 0 holds earlier STARTs only.
      */
    private def foreachCombined(j: Int)(f: (StartState, Long) => Unit): Unit =
      if (j == 0) {
        val first = segs(0)
        val last  = first.types.size - 1
        first.starts.foreach { a =>
          val n = a.counts(last)
          if (n > 0) f(a, n)
        }
      } else comb(j).foreachEntry { (a, n) => if (n > 0) f(a, n) }

    private def addResult(ws: Long, sum: Long): Unit =
      if (sum != 0) {
        if (!results.contains(ws)) metrics.addState(1)
        results(ws) = Math.addExact(results.getOrElse(ws, 0L), sum)
      }

    /** Phase 1: snapshot level `j-1` at every new START of segment `j >= 1`
      * (Fig 7: "when c3 arrives, count(A,B) = 1"). The final level buckets
      * the snapshot by slide index (WinSnap), so a completion reads one
      * cell per window instead of iterating every overall START.
      */
    def snapshot(j: Int): Unit = segs(j).started.foreach { c =>
      if (j == k - 1) {
        val buckets = new Array[Long](((winLast - winFirst) / win.slideSec).toInt + 1)
        var touched = 0
        foreachCombined(j - 1) { (a, n) =>
          if (a.time >= winFirst) {
            touched += 1
            // `a` covers every window start <= a.time in range.
            val pos = math.min(buckets.length - 1,
              ((a.time - winFirst) / win.slideSec).toInt)
            buckets(pos) = Math.addExact(buckets(pos), n)
          }
        }
        // suffix-sum: sums(i) = Σ_{p >= i} buckets(p)
        var i = buckets.length - 2
        while (i >= 0) { buckets(i) = Math.addExact(buckets(i), buckets(i + 1)); i -= 1 }
        metrics.combMults += math.max(1, touched + buckets.length)
        metrics.addState(buckets.length.toLong + 1)
        snaps(j)(c) = WinSnap(winFirst, buckets)
      } else {
        val snap = mutable.AnyRefMap.empty[StartState, Long]
        foreachCombined(j - 1)((a, n) => snap(a) = n)
        metrics.combMults += math.max(1, snap.size)
        metrics.addState(snap.size.toLong + 1)
        snaps(j)(c) = MapSnap(snap)
      }
    }

    /** Phase 3: combine segment `j`'s completions. A single-segment query's
      * END updates every window it falls into (§3.2), filtered to STARTs
      * inside the window. Level `j >= 1` multiplies against the snapshot
      * taken at its START.
      */
    def combine(j: Int): Unit = {
      val seg = segs(j)
      if (k == 1) {
        val n  = seg.completed.size
        var ws = winFirst
        while (ws <= winLast) {
          // Same work unit as the shared path's per-(START, window)
          // combination lookups — metered so Non-Shared and Shared costs
          // are comparable.
          metrics.combMults += n
          var sum = 0L
          var i   = 0
          while (i < n) {
            val a = seg.completed(i)
            if (a.time >= ws) sum = Math.addExact(sum, a.delta)
            i += 1
          }
          addResult(ws, sum)
          ws += win.slideSec
        }
      } else if (j > 0) seg.completed.foreach { c =>
        snaps(j).getOrNull(c) match {
          case MapSnap(snap) => // intermediate level
            snap.foreachEntry { (a, pref) =>
              metrics.combMults += 1
              if (!comb(j).contains(a)) metrics.addState(1)
              comb(j)(a) = Math.addExact(comb(j).getOrElse(a, 0L),
                Math.multiplyExact(pref, c.delta))
            }
          case WinSnap(firstWs, sums) => // final level
            var ws = winFirst
            while (ws <= winLast) {
              metrics.combMults += 1
              val idx = (ws - firstWs) / win.slideSec
              if (idx >= 0 && idx < sums.length)
                addResult(ws, Math.multiplyExact(sums(idx.toInt), c.delta))
              ws += win.slideSec
            }
          case _ => ()
        }
      }
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
    val qr = new QueryRuntime(cq, segs)
    segs.zipWithIndex.foreach { case (s, j) => s.readers += ((qr, j)) }
    qr
  }
  private val segArr = segmentRuntimes.values.toArray
  // Dispatch by type id: the segments that react to a type, and its level in each.
  private val typeToSegs: Array[Array[SegmentRuntime]] =
    Array.tabulate(segArr.flatMap(_.types).maxOption.fold(0)(_ + 1))(t =>
      segArr.filter(_.types.contains(t)))
  private val typeToLevels: Array[Array[Int]] =
    Array.tabulate(typeToSegs.length)(t => typeToSegs(t).map(_.types.indexOf(t)))

  // The timestamp being fed; the starts of the windows containing it
  // (winFirst, winFirst + slide, ..., winLast); whether results() or
  // emitClosed() already ran its phases; the segments that saw its events.
  private var now        = Long.MinValue
  private var winFirst   = 0L
  private var winLast    = 0L
  private var flushed    = false
  private val busy       = mutable.ArrayBuffer.empty[SegmentRuntime]
  private var nextExpire = Long.MinValue

  /** Runs the phases of timestamp `now` (see the class doc). */
  private def endTimestamp(): Unit =
    if (busy.nonEmpty) {
      winFirst = win.firstWindowStart(now)
      winLast  = win.lastWindowStart(now)
      busy.foreach(s =>
        if (s.started.nonEmpty) s.readers.foreach { case (qr, j) => if (j > 0) qr.snapshot(j) })
      busy.foreach(_.advance())
      busy.foreach(s =>
        if (s.completed.nonEmpty) s.readers.foreach { case (qr, j) => qr.combine(j) })
      busy.foreach(_.clear())
      busy.clear()
    }

  /** Feeds one event. Times must be non-negative and non-decreasing, and
    * an event may not share the timestamp of a [[results]] or
    * [[emitClosed]] call before it.
    */
  def feed(e: Event): Unit = {
    require(e.time >= 0, s"negative timestamp in $e")
    require(e.time > now || (e.time == now && !flushed),
      s"events must arrive in time order, each timestamp before reading results: $e")
    if (e.time > now) {
      endTimestamp()
      now     = e.time
      flushed = false
      if (now >= nextExpire) {
        segArr.foreach(_.expire(now))
        queryRuntimes.foreach(_.expire(now))
        nextExpire = now + win.slideSec
      }
    }
    metrics.events += 1
    // Each reacting segment runtime sees the event once — this is the
    // sharing: shared patterns are aggregated once (§3.3).
    if (e.etype >= 0 && e.etype < typeToSegs.length) {
      val segs   = typeToSegs(e.etype)
      val levels = typeToLevels(e.etype)
      var i = 0
      while (i < segs.length) { segs(i).arrive(e.time, levels(i)); i += 1 }
    }
  }

  private def flush(): Unit = { endTimestamp(); flushed = true }

  /** Current per-key window counts of every query (closes the current timestamp). */
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

object KeyGroupEngine {

  /** Per-START-event state of one segment: `counts(j)` = number of
    * matches of the segment's first `j+1` types starting at this START
    * (`counts(0)` is identically 1 — the START itself).
    */
  final class StartState(val time: Long, nLevels: Int) {
    val counts = new Array[Long](nLevels)
    counts(0) = 1L
    /** Matches each of this timestamp's completing events ends here (phases 2 → 3). */
    var delta = 0L
  }

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
}
