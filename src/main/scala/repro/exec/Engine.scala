package repro.exec

import scala.collection.mutable
import repro.core.Model.WindowSpec
import CompiledPlan._
import KeyGroupEngine._

/** The Sharon runtime engine for one key group (paper §3) — shared online
  * event sequence aggregation without sequence construction.
  *
  * Events arrive in time order. Each *segment runtime* implements the
  * A-Seq kernel (§3.2, Fig 6): one count per segment prefix per live
  * START cell; shared segments are evaluated once for all subscribing
  * queries. Every level update is linear and applies to every live cell
  * alike, so STARTs with the same windows (the same pane `time / slide`
  * and the same first window) and the same snapshot at every reader
  * evolve identically once admitted: they are one weighted cell, whose
  * level 0 is their number and whose time is its first START's (pane
  * aggregation, Li et al., "No pane, no gain", SIGMOD Record 2005). A
  * segment read only at position 0 takes no snapshots, so it keeps one
  * cell per pane: per-pane A-Seq. A segment read at a later position
  * keeps one cell per run of STARTs in one pane during which its readers'
  * prefix counts do not change; the STARTs of one timestamp are the
  * shortest such run. A segment keeps its live cells in flat primitive
  * arrays, one per field and one per level, so a level update is one pass
  * over two contiguous `Long` arrays; a cell is an index, not an object.
  * Each *query runtime*
  * implements count combination (§3.3, Fig 7): when segment `S_j`'s START
  * event `c` arrives it
  * snapshots the running combined count of `S_1..S_{j-1}`; when sequences
  * of `S_j` starting at `c` complete with increment `δ`, it adds
  * `snap(c) × δ` to the combined count of `S_1..S_j`. An overall START
  * `a` (a START of `S_1`) matters only through its pane `a.time / slide`,
  * which fixes the windows holding `a` and when it expires, so every
  * combination level and every snapshot is kept per pane, not per `a`. A
  * snapshot lives in the cell of the START `c` it was taken at and
  * expires with it.
  * Windows appear only where results are written: the END events of the
  * last segment add per pane, and once per timestamp a backward pass sums
  * the panes from each window's first pane on into that window's result
  * (Fig 6(b) expiration semantics: only STARTs inside the window count),
  * in a dense array of window results. Each count is kept once: the
  * combined count of `S_1` alone is `S_1`'s own count per START.
  *
  * Timestamp ties: sequence semantics require strictly increasing times
  * (Definition 1), so events sharing a timestamp must not see each other's
  * updates. An arriving event is only recorded, as a new START or as a
  * pending level. When time advances (or at [[results]]/[[emitClosed]])
  * the timestamp's phases run, each reading state its timestamp has not
  * written yet: (1) queries snapshot at the new START cells from earlier
  * ones; (2) segments advance their earlier START cells, highest level
  * first, record each completing cell once with the matches of every
  * completing event of the timestamp, and admit each new cell or join it
  * to the segment's last live cell; (3) queries
  * combine the completions; (4) the per-timestamp state is cleared.
  *
  * Counts are exact: an update that would overflow a `Long` throws
  * `ArithmeticException` instead of wrapping around, naming the segment
  * and its cell's first START time, or the query and window start, where
  * it happened. Only a count the engine stores can overflow: a START
  * cell's count, a pane's sum (never more than the count of the window
  * starting at that pane) or a window result. A sum of panes that no
  * window holds is never formed, but a cell's count sums the matches of
  * every START with its windows, a segment need not be a whole query, and
  * a level below the last counts prefixes: so a cell can refuse a count
  * that no window result holds. The refusal is still loud; no count wraps.
  */
final class KeyGroupEngine(cw: CompiledWorkload, metrics: EngineMetrics) {
  private val win: WindowSpec = cw.window

  /** A-Seq state for one segment pattern (§3.2); shared across queries
    * when the plan says so (one instance per distinct shareKey).
    *
    * The live START cells are the range `[lo, hi)` of flat, time-ordered
    * arrays: `times(i)` is the timestamp of cell `i`'s first START,
    * `lv(j)(i)` its level-`j` count, `snaps(s)(i)` the snapshot of reader
    * slot `s` taken at it and `deltas(i)` its completions of this
    * timestamp. A cell holds the STARTs with its windows that arrived
    * while every reader's snapshot stayed the same. This timestamp's new
    * cell is written at `hi`; in phase 2 it joins the last live cell if
    * it evolves as that one does, else the range.
    */
  final class SegmentRuntime(val types: Vector[Int]) {
    private val last = types.size - 1
    private[KeyGroupEngine] var times  = new Array[Long](16) // its length is the arrays' capacity
    private[KeyGroupEngine] var lv     = Array.fill(types.size)(new Array[Long](times.length))
    private[KeyGroupEngine] var snaps  = Array.empty[Array[Array[Long]]]
    private[KeyGroupEngine] var deltas = new Array[Long](times.length)
    private[KeyGroupEngine] var lo = 0
    private[KeyGroupEngine] var hi = 0
    // The queries reading this segment and its position in each.
    private var readerQueries = Array.empty[QueryRuntime]
    private var readerPos     = Array.empty[Int]
    // Per timestamp: whether a new START cell sits at `hi`, events per
    // level j >= 1, and the indices of the completing cells.
    private var started = false
    private val hits = new Array[Int](types.size)
    private[KeyGroupEngine] var completed  = new Array[Int](times.length)
    private[KeyGroupEngine] var nCompleted = 0
    private var idle = true

    /** Registers `qr` reading this segment at position `j`; returns the
      * START cells' snapshot slot of that reader, or -1 at position 0.
      */
    def addReader(qr: QueryRuntime, j: Int): Int = {
      readerQueries :+= qr; readerPos :+= j
      if (j == 0) -1 else { snaps :+= new Array[Array[Long]](times.length); snaps.length - 1 }
    }

    def arrive(time: Long, level: Int): Unit = {
      if (idle) { idle = false; busy += this }
      if (level > 0) hits(level) += 1
      else if (started) lv(0)(hi) += 1
      else {
        if (hi == times.length) makeRoom()
        times(hi) = time
        lv(0)(hi) = 1L
        var j = 1
        while (j <= last) { lv(j)(hi) = 0L; j += 1 }
        started = true
      }
    }

    /** Frees cell `hi`: moves the live range to the front when at least
      * half the arrays lie before it, else doubles the arrays. Runs only
      * between timestamps, so no completion index is held.
      */
    private def makeRoom(): Unit =
      if (lo >= times.length / 2) {
        val n = hi - lo
        def shift[A](a: Array[A]): Unit = System.arraycopy(a, lo, a, 0, n)
        shift(times); lv.foreach(shift); shift(deltas)
        snaps.foreach { s => shift(s); java.util.Arrays.fill(s.asInstanceOf[Array[AnyRef]], n, hi, null) }
        lo = 0; hi = n
      } else {
        val cap = 2 * times.length
        times = java.util.Arrays.copyOf(times, cap)
        lv = lv.map(java.util.Arrays.copyOf(_, cap))
        snaps = snaps.map(java.util.Arrays.copyOf(_, cap))
        deltas = java.util.Arrays.copyOf(deltas, cap)
        completed = java.util.Arrays.copyOf(completed, cap)
      }

    /** Phase 2: each level-`j` event adds every earlier START cell's count
      * one level down. Levels go highest first, so each reads the count as
      * of the previous timestamp. A completing cell is recorded once, with
      * the matches of all `h` completing events. Then the new cell joins
      * the last live cell (see `joins`) or is admitted to the range.
      */
    def advance(): Unit = {
      var j = last
      var i = lo
      try {
        while (j > 0) {
          val h = hits(j).toLong
          if (h > 0) {
            metrics.countUpdates += h * (hi - lo)
            val src = lv(j - 1); val dst = lv(j)
            i = lo
            if (j < last)
              while (i < hi) { dst(i) = Math.addExact(dst(i), Math.multiplyExact(h, src(i))); i += 1 }
            else
              while (i < hi) {
                if (src(i) > 0) {
                  val d = Math.multiplyExact(h, src(i))
                  dst(i) = Math.addExact(dst(i), d)
                  deltas(i) = d; completed(nCompleted) = i; nCompleted += 1
                }
                i += 1
              }
          }
          j -= 1
        }
        if (started) {
          metrics.countUpdates += 1
          val n = lv(0)(hi)
          i = hi - 1
          if (i >= lo && joins(i)) {
            lv(0)(i) = Math.addExact(lv(0)(i), n)
            var s = 0
            while (s < snaps.length) { metrics.removeState(snaps(s)(hi).length.toLong + 1); snaps(s)(hi) = null; s += 1 }
          } else { i = hi; hi += 1; metrics.addState(types.size) }
          // A single-type segment completes at its own START events.
          if (last == 0) { deltas(i) = n; completed(nCompleted) = i; nCompleted += 1 }
        }
      } catch { case _: ArithmeticException => throw new ArithmeticException(
        s"count of segment (${types.map(cw.typeIds.map(_.swap)).mkString(",")}) " +
          s"from its START at ${times(i)} overflows a Long") }
    }

    /** Whether the new cell at `hi` evolves as cell `c` does from now on:
      * both have the same windows (pane, and first window, which differs
      * inside a pane when the length is not a multiple of the slide), so
      * the same expiry and snapshot layout, and every reader's snapshot
      * at them is equal, so the same combination factors.
      */
    private def joins(c: Int): Boolean = {
      val tc = times(c); val th = times(hi)
      var same = tc / win.slideSec == th / win.slideSec && win.firstWindowStart(tc) == win.firstWindowStart(th)
      var s = 0
      while (same && s < snaps.length) { same = java.util.Arrays.equals(snaps(s)(c), snaps(s)(hi)); s += 1 }
      same
    }

    /** Phase 1 for this timestamp's START cell: its readers at position
      * `j >= 1` snapshot level `j-1`.
      */
    def snapshotReaders(): Unit = if (started) {
      var r = 0
      while (r < readerPos.length) {
        if (readerPos(r) > 0) readerQueries(r).snapshot(readerPos(r))
        r += 1
      }
    }

    /** Phases 3 and 4: every reader combines this timestamp's
      * completions, then the per-timestamp state is cleared.
      */
    def combineReaders(): Unit = {
      var r = 0
      if (nCompleted > 0)
        while (r < readerPos.length) { readerQueries(r).combine(readerPos(r)); r += 1 }
      started = false; java.util.Arrays.fill(hits, 0); nCompleted = 0; idle = true
    }

    /** Drop STARTs whose last containing window has closed (§3.2), with
      * the snapshots taken at them. Safe: the window filter at result time
      * already excludes them. STARTs are time-ordered, so the expired ones
      * form a prefix.
      */
    def expire(now: Long): Unit = {
      var n = lo
      while (n < hi && win.lastWindowEnd(times(n)) <= now) {
        var s = 0
        while (s < snaps.length) { metrics.removeState(snaps(s)(n).length.toLong + 1); snaps(s)(n) = null; s += 1 }
        n += 1
      }
      metrics.removeState((n - lo).toLong * types.size)
      lo = n
      if (lo == hi) { lo = 0; hi = 0 }
    }
  }

  /** Count-combination state of one query (§3.3), kept per pane. A START's
    * window membership and expiry depend only on its pane `time / slide`
    * (Li et al., "No pane, no gain", SIGMOD Record 2005), so every level
    * sums its overall STARTs (STARTs of `S_1`) per pane. Level `j` counts
    * the matches of `S_1..S_{j+1}`: level 0 is `S_1`'s own count per
    * START, `comb(j)` for `1 <= j <= k-2` is a ring of pane-tagged cells,
    * and level `k-1` is summed per pane for one timestamp only, then into
    * window results. Every level combines the same way, in [[combine]].
    * The snapshot at a START of segment `j >= 1` is kept in that START's
    * cell, in this query's slot, per pane, and is released when the
    * segment drops the cell. Window results are a dense array indexed by
    * window number `windowStart / slide`, from the first window not yet
    * emitted on.
    */
  final class QueryRuntime(val q: CompiledQuery, val segs: Vector[SegmentRuntime]) {
    private val k     = segs.size
    private val slide = win.slideSec
    private val slot  = Array.tabulate(k)(j => segs(j).addReader(this, j))
    // comb(j) is at index j-1. A ring has more cells than one window range
    // has panes, so a cell tagged with a pane other than the one asked for
    // holds an expired pane: no expiry sweep is needed.
    private val ring     = (win.lengthSec / slide).toInt + 2
    private val combPane = Array.fill(math.max(0, k - 2), ring)(-1L)
    private val combVal  = Array.fill(math.max(0, k - 2), ring)(0L)
    private val acc = new Array[Long](ring) // this timestamp's final level per current pane
    // results(i) is the count of window number base + i, 0 if it has none
    // yet (counts are positive); windows from `top` on were never written.
    private var results = new Array[Long](ring)
    private var base    = 0L
    private var top     = 0L

    /** `x + y × z`; an overflow names this query and the window at `ws`. */
    private def mulAdd(x: Long, y: Long, z: Long, ws: Long): Long =
      try Math.addExact(x, Math.multiplyExact(y, z))
      catch { case _: ArithmeticException => throw new ArithmeticException(
        s"count of query ${q.ids.mkString(",")} in the window starting at $ws overflows a Long") }

    /** Phase 1: snapshot level `j-1` per pane at the new START cell of
      * segment `j >= 1` (Fig 7: "when c3 arrives, count(A,B) = 1"); cell
      * `i` is pane `winFirst / slide + i`.
      */
    def snapshot(j: Int): Unit = {
      val p0      = winFirst / slide
      val cells   = new Array[Long](((winLast - winFirst) / slide).toInt + 1)
      var touched = 0 // nonzero START cells or pane cells read
      if (j == 1) {
        val s0     = segs(0) // earlier START cells only, time-ordered
        val times  = s0.times
        val counts = s0.lv(s0.types.size - 1)
        var i = s0.hi - 1
        while (i >= s0.lo && times(i) >= winFirst) {
          if (counts(i) > 0) {
            touched += 1
            val c = (times(i) / slide - p0).toInt
            cells(c) = mulAdd(cells(c), counts(i), 1L, (p0 + c) * slide)
          }
          i -= 1
        }
      } else {
        val tags = combPane(j - 2); val vals = combVal(j - 2)
        var c = 0
        while (c < cells.length) {
          val r = ((p0 + c) % ring).toInt
          if (tags(r) == p0 + c && vals(r) > 0) { touched += 1; cells(c) = vals(r) }
          c += 1
        }
      }
      metrics.combMults += touched + cells.length
      metrics.addState(cells.length.toLong + 1)
      segs(j).snaps(slot(j))(segs(j).hi) = cells
    }

    /** Phase 3: combine segment `j >= 1`'s completions (level 0 is `S_1`'s
      * own count). A completing START `c` adds `snap(c) × δ` per current
      * pane into `comb(j)` or, at the final level, into this timestamp's
      * per-pane sums. A single-segment query's END completes its own
      * START: a unit snapshot at that START's pane (§3.2). The final level
      * then suffix-sums the panes into the windows holding them, writing
      * each window result once per timestamp.
      */
    def combine(j: Int): Unit = if (j > 0 || k == 1) {
      val p0        = winFirst / slide
      val n         = ((winLast - winFirst) / slide).toInt + 1
      val lastLevel = j == k - 1
      // One work unit per (completion, window) at the final level, the cost model's Comb.
      val seg = segs(j)
      if (lastLevel) metrics.combMults += seg.nCompleted.toLong * n
      var ci = 0
      while (ci < seg.nCompleted) {
        val c     = seg.completed(ci)
        val time  = seg.times(c)
        val delta = seg.deltas(c)
        val cells = if (k == 1) UnitSnap else seg.snaps(slot(j))(c)
        val cp0   = if (k == 1) time / slide else win.firstWindowStart(time) / slide
        // Panes before the current windows have expired.
        var i = math.max(0L, p0 - cp0).toInt
        while (i < cells.length) {
          if (cells(i) > 0) {
            val p = cp0 + i
            if (lastLevel) {
              val a = (p - p0).toInt
              acc(a) = mulAdd(acc(a), cells(i), delta, p * slide)
            } else {
              val tags = combPane(j - 1); val vals = combVal(j - 1); val r = (p % ring).toInt
              metrics.combMults += 1
              if (tags(r) != p) {
                if (tags(r) < 0) metrics.addState(1) // held from first use until dropped
                tags(r) = p; vals(r) = 0L
              }
              vals(r) = mulAdd(vals(r), cells(i), delta, p * slide)
            }
          }
          i += 1
        }
        ci += 1
      }
      if (lastLevel) {
        val r0  = resultCells(p0, n)
        var sum = 0L // this timestamp's count of window p0 + i: its panes from p0 + i on
        var i   = n - 1
        while (i >= 0) {
          val ws = (p0 + i) * slide
          sum = mulAdd(sum, acc(i), 1L, ws); acc(i) = 0L
          if (sum != 0) {
            if (results(r0 + i) == 0) metrics.addState(1)
            results(r0 + i) = mulAdd(results(r0 + i), sum, 1L, ws)
          }
          i -= 1
        }
      }
    }

    /** Index in `results` of window number `w`, with cells for the `n - 1`
      * windows after it.
      */
    private def resultCells(w: Long, n: Int): Int = {
      if (top <= base) { base = w; top = w } // nothing held: start at `w`
      top = math.max(top, w + n)
      if (top - base > results.length)
        results = java.util.Arrays.copyOf(results, math.max((top - base).toInt, 2 * results.length))
      (w - base).toInt
    }

    /** The windows held before window number `end`, in window order,
      * each once per query id of this pattern.
      */
    def windows(end: Long): Iterator[QueryWindowCount] =
      (0 until (math.min(end, top) - base).toInt).iterator
        .filter(results(_) != 0)
        .flatMap(i => q.ids.iterator.map(QueryWindowCount(_, (base + i) * slide, results(i))))

    /** Forgets the windows before window number `end`, and frees the ring
      * cells of panes before `end`: the last window holding pane `p` is
      * window number `p`, so no later snapshot or combination reads them.
      */
    def drop(end: Long): Unit = {
      val n = math.max(0L, math.min(end, top) - base).toInt
      var i = 0
      while (i < n) { if (results(i) != 0) metrics.removeState(1); i += 1 }
      System.arraycopy(results, n, results, 0, results.length - n)
      java.util.Arrays.fill(results, results.length - n, results.length, 0L)
      base += n
      for (tags <- combPane; r <- tags.indices if tags(r) >= 0 && tags(r) < end) {
        tags(r) = -1L; metrics.removeState(1)
      }
    }
  }

  // --- wiring: one runtime per distinct shareKey; queries reference them.
  private val segmentRuntimes: mutable.LinkedHashMap[String, SegmentRuntime] =
    mutable.LinkedHashMap.empty
  private val queryRuntimes: Vector[QueryRuntime] = cw.queries.map { cq =>
    new QueryRuntime(cq, cq.segments.map(s =>
      segmentRuntimes.getOrElseUpdate(s.shareKey, new SegmentRuntime(s.types))))
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
  // The highest emitClosed watermark: an earlier event could change an emitted window.
  private var closedBefore = 0L

  /** Runs the phases of timestamp `now` (see the class doc). */
  private def endTimestamp(): Unit =
    if (busy.nonEmpty) {
      winFirst = win.firstWindowStart(now)
      winLast  = win.lastWindowStart(now)
      var b = 0
      while (b < busy.size) { busy(b).snapshotReaders(); b += 1 }
      b = 0
      while (b < busy.size) { busy(b).advance(); b += 1 }
      b = 0
      while (b < busy.size) { busy(b).combineReaders(); b += 1 }
      busy.clear()
    }

  /** Feeds one event. Times must be non-negative and non-decreasing, an
    * event may not share the timestamp of a [[results]] or [[emitClosed]]
    * call before it, and may not precede an [[emitClosed]] watermark.
    */
  def feed(e: Event): Unit = {
    require(e.time >= closedBefore, s"negative timestamp or one before an emitClosed watermark in $e")
    require(e.time > now || (e.time == now && !flushed),
      s"events must arrive in time order, each timestamp before reading results: $e")
    if (e.time > now) {
      endTimestamp()
      now     = e.time
      flushed = false
      if (now >= nextExpire) {
        segArr.foreach(_.expire(now))
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
    queryRuntimes.iterator.flatMap(_.windows(Long.MaxValue))
  }

  /** Streaming emission: returns and forgets the counts of all windows
    * fully before `watermark` (their results can no longer change).
    */
  def emitClosed(watermark: Long): Vector[QueryWindowCount] = {
    flush()
    // The first window number whose window ends after the watermark.
    val end = if (watermark < win.lengthSec) 0L else (watermark - win.lengthSec) / win.slideSec + 1
    val out = queryRuntimes.flatMap(_.windows(end))
    queryRuntimes.foreach(_.drop(end))
    closedBefore = math.max(closedBefore, watermark)
    out
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

  /** The snapshot a single-segment query's END combines with: its START alone. */
  private val UnitSnap = Array(1L)
}
