package repro.exec

import repro.core.Model._
import repro.core.Candidate

/** Compile-time representation of a workload under a sharing plan — the
  * "compiled sharing graph" the runtime executor follows (paper §2.2:
  * the static optimizer's plan guides the executor).
  *
  * Each query's pattern is decomposed into contiguous *segments*: the
  * shared patterns assigned to it by the plan, plus unshared gap segments
  * (the `prefix`/`suffix` of Definition 4, generalized to multiple shared
  * patterns per query). Segments carry a `shareKey`: shared segments of
  * the same pattern map to one runtime state reused by all subscribing
  * queries; private segments are keyed per query and position. Identical
  * queries under identical shared spans compile to one query, evaluated
  * once and reported under each of their ids.
  */
object CompiledPlan {

  /** One segment of a query's decomposition. `types` are dictionary-coded
    * event types (see [[typeDictionary]]).
    */
  final case class CompiledSegment(shareKey: String, types: Vector[Int], shared: Boolean) {
    require(types.nonEmpty)
  }

  /** The segments of one pattern and the ids of the queries it counts for. */
  final case class CompiledQuery(ids: Vector[Int], segments: Vector[CompiledSegment]) {
    require(ids.nonEmpty && segments.nonEmpty)
  }

  final case class CompiledWorkload(window: WindowSpec,
                                    queries: Vector[CompiledQuery],
                                    typeIds: Map[EventType, Int]) extends Serializable {
    /** Distinct segment share-keys — the number of aggregation states the
      * executor maintains (fewer = more sharing).
      */
    def distinctSegments: Int =
      queries.flatMap(_.segments.map(_.shareKey)).distinct.size
  }

  /** Stable event-type dictionary for a workload (executor-side types are
    * ints; streams must be generated with the same dictionary).
    */
  def typeDictionary(workload: Workload): Map[EventType, Int] =
    workload.queries.flatMap(_.pattern.types).distinct.sorted.zipWithIndex.toMap

  /** Decomposes `workload` under `plan`: queries covered by shared
    * candidates get `prefix / shared / suffix` segments (§3.3). Plans
    * must be valid (Definition 7): shared patterns assigned to one query
    * cannot overlap. Queries of one pattern with the same shared spans
    * become one compiled query, whose private gap segments are keyed by
    * the group's lowest id; so an empty plan yields one private
    * whole-pattern segment per distinct pattern — A-Seq over the distinct
    * patterns.
    */
  def compile(workload: Workload,
              plan: Seq[Candidate],
              typeIds: Map[EventType, Int]): CompiledWorkload = {
    // Shared patterns of a query, with their (unique) occurrence span.
    def spans(q: Query): Vector[(Int, Int, Pattern)] = {
      val out = plan.iterator
        .filter(_.queryIds.contains(q.id))
        .map { c =>
          val i = q.pattern.indexOf(c.pattern).getOrElse(
            throw new IllegalArgumentException(s"plan pattern ${c.pattern} not in $q"))
          (i, i + c.pattern.length, c.pattern)
        }
        .toVector.sortBy(_._1)
      out.sliding(2).foreach {
        case Vector((_, e1, p1), (s2, _, p2)) =>
          require(e1 <= s2, s"overlapping shared patterns $p1/$p2 in $q — invalid plan")
        case _ => ()
      }
      out
    }
    val spanned = workload.queries.map(q => (q, spans(q)))
    // Each group's ids, in id order, under its lowest id.
    val groups = spanned.groupBy { case (q, sp) => (q.pattern, sp) }.values
      .map(_.map(_._1.id).sorted).map(ids => ids.head -> ids).toMap
    val queries = spanned.collect { case (q, sp) if groups.contains(q.id) =>
      val segments = Vector.newBuilder[CompiledSegment]
      var pos      = 0
      var gapIdx   = 0
      def gap(until: Int): Unit =
        if (until > pos) {
          val ts = q.pattern.types.slice(pos, until)
          segments += CompiledSegment(s"q${q.id}#$gapIdx", ts.map(typeIds), shared = false)
          gapIdx += 1
          pos = until
        }
      for ((s, e, p) <- sp) {
        gap(s)
        segments += CompiledSegment("shared:" + p.types.mkString(","),
          p.types.map(typeIds), shared = true)
        pos = e
      }
      gap(q.pattern.length)
      CompiledQuery(groups(q.id), segments.result())
    }
    CompiledWorkload(workload.window, queries, typeIds)
  }

  /** The Non-Shared method, A-Seq (§3.2): one private whole-pattern
    * segment per query, identical queries included.
    */
  def nonShared(workload: Workload, typeIds: Map[EventType, Int]): CompiledWorkload =
    CompiledWorkload(workload.window, workload.queries.map(q =>
      CompiledQuery(Vector(q.id),
        Vector(CompiledSegment(s"q${q.id}#0", q.pattern.types.map(typeIds), shared = false)))),
      typeIds)
}
