package perfbench

import scala.collection.mutable
import repro.core.Model._
import repro.exec.{CompiledPlan, EngineMetrics, Event, KeyGroupEngine, QueryWindowCount}

/** Exact reference counts: a windowed dynamic program per key, query and
  * window, independent of the engine. Sequences need strictly increasing
  * times, so the events of one timestamp (a tie batch) all read the
  * counts as of strictly earlier times before any of them is added.
  * Arithmetic is exact: checked `Long` while it fits, `BigInt` otherwise.
  */
object Reference {

  type ResultKey = (Int, Long) // (query id, window start)

  final case class Check(total: Long, wrong: Long, examples: Vector[String])

  /** Workload-level counts of every `(query, window)` with a non-zero count. */
  def counts(events: Seq[Event], workload: Workload,
             typeIds: Map[EventType, Int]): Map[ResultKey, BigInt] = {
    val win     = workload.window
    val nTypes  = typeIds.values.max + 1
    // levels(q)(type) = position of the type in query q's pattern, or -1.
    val levels  = workload.queries.map { q =>
      val a = Array.fill(nTypes)(-1)
      q.pattern.types.zipWithIndex.foreach { case (t, i) => a(typeIds(t)) = i }
      a
    }
    val out = mutable.HashMap.empty[ResultKey, BigInt]
    for ((_, group) <- events.groupBy(_.key)) {
      val sorted = group.sortBy(_.time)
      val times  = sorted.map(_.time).toArray
      val types  = sorted.map(_.etype).toArray
      var ws     = 0L
      while (ws <= times.last) {
        val lo = lowerBound(times, ws)
        val hi = lowerBound(times, ws + win.lengthSec)
        if (lo < hi) for (qi <- workload.queries.indices) {
          val c = windowCount(times, types, lo, hi, levels(qi), workload.queries(qi).pattern.length)
          if (c != 0) {
            val k = (workload.queries(qi).id, ws)
            out(k) = out.getOrElse(k, BigInt(0)) + c
          }
        }
        ws += win.slideSec
      }
    }
    out.toMap
  }

  private def lowerBound(a: Array[Long], x: Long): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) { val m = (lo + hi) >>> 1; if (a(m) < x) lo = m + 1 else hi = m }
    lo
  }

  private def windowCount(times: Array[Long], types: Array[Int], lo: Int, hi: Int,
                          level: Array[Int], len: Int): BigInt =
    try BigInt(longCount(times, types, lo, hi, level, len))
    catch { case _: ArithmeticException => bigCount(times, types, lo, hi, level, len) }

  private def longCount(times: Array[Long], types: Array[Int], lo: Int, hi: Int,
                        level: Array[Int], len: Int): Long = {
    val dp  = new Array[Long](len) // dp(j): matches of the first j+1 types so far
    val inc = new Array[Long](len)
    var i   = lo
    while (i < hi) {
      var j = i
      while (j < hi && times(j) == times(i)) {
        val l = level(types(j))
        if (l >= 0) inc(l) = Math.addExact(inc(l), if (l == 0) 1L else dp(l - 1))
        j += 1
      }
      var l = 0
      while (l < len) { dp(l) = Math.addExact(dp(l), inc(l)); inc(l) = 0L; l += 1 }
      i = j
    }
    dp(len - 1)
  }

  private def bigCount(times: Array[Long], types: Array[Int], lo: Int, hi: Int,
                       level: Array[Int], len: Int): BigInt = {
    val dp  = Array.fill(len)(BigInt(0))
    val inc = Array.fill(len)(BigInt(0))
    var i   = lo
    while (i < hi) {
      var j = i
      while (j < hi && times(j) == times(i)) {
        val l = level(types(j))
        if (l >= 0) inc(l) += (if (l == 0) BigInt(1) else dp(l - 1))
        j += 1
      }
      for (l <- 0 until len) { dp(l) += inc(l); inc(l) = BigInt(0) }
      i = j
    }
    dp(len - 1)
  }

  /** Compares every `(query, window)` result against the reference; a
    * missing result counts as 0, so a missing non-zero count is wrong.
    */
  def check(ref: Map[ResultKey, BigInt], got: Iterable[(ResultKey, Long)]): Check = {
    val gotMap = mutable.HashMap.empty[ResultKey, BigInt]
    got.foreach { case (k, c) => gotMap(k) = gotMap.getOrElse(k, BigInt(0)) + c }
    val keys = ref.keySet ++ gotMap.collect { case (k, c) if c != 0 => k }
    val bad  = keys.toVector.sorted.filter(k =>
      ref.getOrElse(k, BigInt(0)) != gotMap.getOrElse(k, BigInt(0)))
    Check(keys.size.toLong, bad.size.toLong, bad.take(5).map(k =>
      s"q${k._1}@${k._2}: expected ${ref.getOrElse(k, 0)}, got ${gotMap.getOrElse(k, 0)}"))
  }

  /** Self-test of the checker on the known Long wrap-around: one length-10
    * pattern, 100 in-order events per type inside one window. The exact
    * count is 10^20; a result that is not exactly that must be flagged.
    * Returns an error message, or None when the checker behaves.
    */
  def overflowSelfTest(): Option[String] = {
    val types    = (0 until 10).map(i => f"T$i%03d").toVector
    val workload = Workload(Workloads.window, Seq(Pattern(types)))
    val typeIds  = types.zipWithIndex.toMap
    val events   = for (t <- 0 until 10; _ <- 0 until 100) yield Event(0L, t.toLong, t)
    val exact    = BigInt(10).pow(20)
    val ref      = counts(events, workload, typeIds)
    val engine   = new KeyGroupEngine(CompiledPlan.nonShared(workload, typeIds), new EngineMetrics)
    // An engine that refuses the overflow (throws) needs no checker.
    val got      = try Some(toKeyed(engine.run(events.iterator).toVector))
                   catch { case _: ArithmeticException => None }
    val wrapped  = check(ref, Vector((0, 0L) -> exact.toLong))
    if (ref != Map((0, 0L) -> exact)) Some(s"reference gives $ref, expected 10^20")
    else if (wrapped.wrong != 1) Some("checker accepts the wrapped count 7766279631452241920")
    else got.flatMap { rows =>
      val engineAt = rows.collectFirst { case ((0, 0L), c) => BigInt(c) }
      if ((check(ref, rows).wrong == 0) != engineAt.contains(exact))
        Some(s"checker verdict disagrees with the engine's count $engineAt")
      else None
    }
  }

  def toKeyed(rows: Iterable[QueryWindowCount]): Iterable[(ResultKey, Long)] =
    rows.map(r => (r.queryId, r.windowStart) -> r.count)
}
