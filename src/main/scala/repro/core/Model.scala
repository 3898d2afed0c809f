package repro.core

/** Data/query model of Sharon (paper §2.1).
  *
  * An event sequence pattern is an ordered list of event types
  * (Definition 1); an event sequence aggregation query (Definition 2)
  * pairs a pattern with a sliding window and an equality predicate on a
  * key attribute (e.g. `[vehicle]`). Under the paper's core assumptions
  * (§2.1) all queries of a workload have the same predicate, grouping and
  * window, and an event type appears at most once in a pattern.
  */
object Model {

  /** Event types are symbolic names, e.g. street names or item kinds. */
  type EventType = String

  /** An event sequence pattern `(E_1 ... E_l)`, `l >= 1` (Definition 1). */
  final case class Pattern(types: Vector[EventType]) {
    require(types.nonEmpty, "a pattern has length >= 1")

    def length: Int = types.size

    /** First event type — its matches are the START events (Definition 1). */
    def startType: EventType = types.head

    /** All contiguous sub-patterns of length > 1 (Appendix A, Alg 7). */
    def subPatterns: Seq[Pattern] =
      for {
        start <- 0 until length
        end   <- (start + 2) to length
      } yield Pattern(types.slice(start, end))

    /** 0-based start index of `p` inside this pattern, if `p` occurs
      * contiguously. Unique when event types are distinct in a pattern
      * (assumption 3, §2.1).
      */
    def indexOf(p: Pattern): Option[Int] = {
      val i = types.indexOfSlice(p.types)
      if (i >= 0) Some(i) else None
    }

    def contains(p: Pattern): Boolean = indexOf(p).isDefined

    /** Prefix of a sharable pattern `p` in this pattern (Definition 4):
      * the sub-pattern strictly before `p`'s occurrence (possibly empty).
      */
    def prefixOf(p: Pattern): Vector[EventType] = {
      val i = indexOf(p).getOrElse(
        throw new IllegalArgumentException(s"$p does not occur in $this"))
      types.take(i)
    }

    /** Suffix of a sharable pattern `p` in this pattern (Definition 4). */
    def suffixOf(p: Pattern): Vector[EventType] = {
      val i = indexOf(p).getOrElse(
        throw new IllegalArgumentException(s"$p does not occur in $this"))
      types.drop(i + p.length)
    }

    /** True iff the occurrences of `a` and `b` inside this pattern share
      * at least one position — the overlap condition of Definition 6
      * (`A_{n-k}..A_n = B_0..B_k` inside the query's pattern).
      */
    def occurrencesOverlap(a: Pattern, b: Pattern): Boolean =
      (indexOf(a), indexOf(b)) match {
        case (Some(ia), Some(ib)) =>
          val (aEnd, bEnd) = (ia + a.length - 1, ib + b.length - 1)
          ia <= bEnd && ib <= aEnd
        case _ => false
      }

    override def toString: String = types.mkString("(", ", ", ")")
  }

  object Pattern {
    /** Convenience constructor: `Pattern("A", "B", "C")`. */
    def apply(first: EventType, rest: EventType*): Pattern =
      Pattern((first +: rest).toVector)
  }

  /** Sliding window `WITHIN lengthSec SLIDE slideSec` (Definition 2).
    * Windows are the half-open intervals `[i*slide, i*slide + length)`,
    * `i >= 0`, over the non-negative integer timeline (§2.1).
    */
  final case class WindowSpec(lengthSec: Long, slideSec: Long) {
    require(lengthSec > 0 && slideSec > 0 && slideSec <= lengthSec,
      s"invalid window $this")

    /** Start times of all windows containing time point `t`. */
    def windowsOf(t: Long): Seq[Long] =
      (firstWindowStart(t) / slideSec to math.floorDiv(t, slideSec)).map(_ * slideSec)

    /** Start of the first window containing time point `t >= 0`. */
    def firstWindowStart(t: Long): Long =
      math.max(0L, math.floorDiv(t - lengthSec, slideSec) + 1) * slideSec

    /** Start of the last window containing time point `t >= 0`. */
    def lastWindowStart(t: Long): Long = math.floorDiv(t, slideSec) * slideSec

    /** End (exclusive) of the last window containing `t` — an event is
      * expired once current time reaches this (Fig 6(b), §3.2).
      */
    def lastWindowEnd(t: Long): Long = lastWindowStart(t) + lengthSec
  }

  /** An event sequence aggregation query (Definition 2), restricted to
    * COUNT(*) with an equality predicate on one key attribute — the class
    * the paper evaluates (q1–q11). `id` doubles as the query's position
    * in the workload (§4, data structures).
    */
  final case class Query(id: Int, pattern: Pattern, window: WindowSpec) {
    require(pattern.types.distinct.size == pattern.length,
      s"event types must be distinct within a pattern (assumption 3): $pattern")
    override def toString: String = s"q$id:$pattern"
  }

  /** A static workload of queries over one stream (§2.2). */
  final case class Workload(queries: Vector[Query]) {
    require(queries.map(_.id).distinct.size == queries.size, "duplicate query ids")
    require(queries.map(_.window).distinct.size <= 1,
      "all queries share the same window (assumption 2)")
    def size: Int = queries.size
    def window: WindowSpec = queries.head.window

    /** Identical queries — one pattern, and one window per workload
      * (assumption 2) — have identical counts. Keeps the lowest-id query
      * of each distinct pattern, in workload order, and maps its id to
      * its group of identical queries, in id order.
      */
    def distinct: (Workload, Map[Int, Vector[Query]]) = {
      val groups = queries.groupBy(_.pattern).values.map(_.sortBy(_.id))
        .map(g => g.head.id -> g).toMap
      (Workload(queries.filter(q => groups.contains(q.id))), groups)
    }
  }

  object Workload {
    /** Builds a workload from raw patterns; ids follow list order. */
    def apply(window: WindowSpec, patterns: Seq[Pattern]): Workload =
      Workload(patterns.zipWithIndex.map { case (p, i) => Query(i, p, window) }.toVector)
  }

  /** Per-type event rates driving the cost model (§3, Eq 1), in events
    * **per window**. In that unit the quadratic terms (Eqs 2, 4) count a
    * window's count updates and the triple product of Eq 5 counts a
    * window's prefix × p × suffix START multiplications, as the executor
    * performs them; per-second rates would under-price Eq 5 by a factor
    * of the window length (DESIGN.md, "Cost-model rate units"). Types
    * missing from the map have rate 0.
    */
  final case class Rates(perType: Map[EventType, Double]) {
    def apply(t: EventType): Double = perType.getOrElse(t, 0.0)

    /** `Rate(P) = Σ_j Rate(E_j)` — rate of events matched by `P` (Eq 1). */
    def ofPattern(types: Seq[EventType]): Double = types.map(apply).sum
  }

  object Rates {
    /** `eventsPerWindow` split evenly over `types`. */
    def perWindow(eventsPerWindow: Long, types: Iterable[EventType]): Rates = {
      val share = eventsPerWindow.toDouble / types.size
      Rates(types.map(_ -> share).toMap)
    }
  }
}
