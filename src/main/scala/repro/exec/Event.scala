package repro.exec

/** One stream event: a key (the equality-predicate attribute, e.g.
  * vehicle or customer id), a second-granularity timestamp, and a
  * dictionary-coded event type (paper §2.1).
  */
final case class Event(key: Long, time: Long, etype: Int)

object Event {

  /** Key, then time, then type: each key group contiguous and in the
    * order the engine takes it. Allocates nothing per comparison.
    */
  val order: java.util.Comparator[Event] = (a, b) => {
    val byKey = java.lang.Long.compare(a.key, b.key)
    if (byKey != 0) byKey
    else {
      val byTime = java.lang.Long.compare(a.time, b.time)
      if (byTime != 0) byTime else Integer.compare(a.etype, b.etype)
    }
  }
}

/** Per-key partial result: sequence count of `queryId` in the window
  * starting at `windowStart`, restricted to one key group. Workload
  * results sum this over keys (the `[vehicle]` predicate partitions
  * matches by key; COUNT(*) per window totals the groups).
  */
final case class QueryWindowCount(queryId: Int, windowStart: Long, count: Long)

/** Exact workload-level counts: sums the per-key partial counts of each
  * `(query, window)`. An overflow throws `ArithmeticException` naming the
  * query and the window start, as the engine's messages do. Windows keep
  * the order in which they were first added.
  */
final class WindowSums {
  private val sums = scala.collection.mutable.LinkedHashMap.empty[(Int, Long), Long]

  /** Adds `r`'s count; returns whether its window is new. */
  def add(r: QueryWindowCount): Boolean = {
    val k   = (r.queryId, r.windowStart)
    val old = sums.get(k)
    sums(k) = try Math.addExact(old.getOrElse(0L), r.count)
      catch { case _: ArithmeticException => throw new ArithmeticException(
        s"count of query ${r.queryId} in the window starting at ${r.windowStart} overflows a Long") }
    old.isEmpty
  }

  def iterator: Iterator[QueryWindowCount] =
    sums.iterator.map { case ((q, ws), c) => QueryWindowCount(q, ws, c) }
}
