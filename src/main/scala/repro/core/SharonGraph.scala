package repro.core

import Model._

/** A sharing candidate `(p, Q_p)` with its benefit value — one vertex of
  * the Sharon graph (Definitions 3, 10). After conflict resolution (§7.1)
  * a vertex may carry a *subset* of the queries containing `p`, so the
  * identity of a candidate is the pair (pattern, query set).
  */
final case class Candidate(pattern: Pattern, queries: Vector[Query], weight: Double) {
  require(queries.size > 1, s"a sharing candidate needs >= 2 queries: $this")

  lazy val queryIds: Set[Int] = queries.map(_.id).toSet

  /** Sharing conflict test (Definition 6): the two candidates' patterns
    * overlap inside the pattern of at least one common query.
    */
  def conflictsWith(other: Candidate): Boolean = {
    val common = queryIds intersect other.queryIds
    common.nonEmpty && queries.exists(q =>
      common.contains(q.id) && q.pattern.occurrencesOverlap(pattern, other.pattern))
  }

  /** Queries causing the conflict with `other` (Definition 6, used by the
    * expansion Algorithm 5).
    */
  def conflictCause(other: Candidate): Vector[Query] =
    queries.filter(q =>
      other.queryIds.contains(q.id) &&
        q.pattern.occurrencesOverlap(pattern, other.pattern))

  override def toString: String =
    s"($pattern, {${queries.map(q => s"q${q.id}").mkString(",")}}, w=$weight)"
}

object Candidate {

  /** Canonical order, "alphabetically by their patterns" (§6, data
    * structures), with query ids ordering the options of one pattern: that
    * of the strings `t1 ␁ t2 ␁ … tk ⊤ ids`, where `␁` sorts below every
    * character and `⊤` above. No two candidates tie.
    */
  implicit val ordering: Ordering[Candidate] = (a, b) => {
    val (x, y) = (a.pattern.types, b.pattern.types)
    var i = 0
    while (i < x.size && i < y.size && x(i) == y(i)) i += 1
    if (i == x.size && i == y.size) ids(a).compareTo(ids(b))
    else if (i == x.size || i == y.size) Integer.compare(y.size, x.size) // ⊤ against ␁
    // One type ends inside the other: ⊤ follows a pattern's last type, ␁ any other.
    else if (y(i).startsWith(x(i))) { if (i == x.size - 1) 1 else -1 }
    else if (x(i).startsWith(y(i))) { if (i == y.size - 1) -1 else 1 }
    else x(i).compareTo(y(i))
  }

  private def ids(c: Candidate): String = c.queries.map(_.id).sorted.mkString(",")
}

/** The Sharon graph (Definition 10): weighted vertices = beneficial
  * sharing candidates, undirected edges = sharing conflicts. Implemented
  * as an adjacency list over vertex indices (§4, data structures);
  * vertices are kept in canonical `Candidate.ordering`.
  */
final case class SharonGraph(vertices: Vector[Candidate], adj: Vector[Set[Int]]) {
  require(vertices.size == adj.size)

  def size: Int = vertices.size
  def degree(i: Int): Int = adj(i).size
  def neighbors(i: Int): Set[Int] = adj(i)
  def hasEdge(i: Int, j: Int): Boolean = adj(i).contains(j)
  def edgeCount: Int = adj.map(_.size).sum / 2

  /** GWMIN's guaranteed weight `Σ_v weight(v)/(degree(v)+1)` (Eq 10). */
  def guaranteedWeight: Double =
    vertices.indices.map(i => vertices(i).weight / (degree(i) + 1)).sum

  /** Maximal score of a plan containing vertex `i` (Definition 12):
    * total weight of all vertices not in conflict with `i` (including
    * `i` itself).
    */
  def scoreMax(i: Int): Double =
    vertices.indices.filterNot(adj(i)).map(vertices(_).weight).sum

  /** Connected components (vertex index sets). Sharing conflicts only
    * relate vertices inside one component, so an optimal plan is the
    * union of per-component optimal plans (scores are additive,
    * Definition 8) — the plan finder exploits this.
    */
  def components: Vector[Vector[Int]] = {
    val seen = new Array[Boolean](size)
    val out  = Vector.newBuilder[Vector[Int]]
    for (start <- vertices.indices if !seen(start)) {
      val comp  = Vector.newBuilder[Int]
      var stack = List(start)
      seen(start) = true
      while (stack.nonEmpty) {
        val v = stack.head; stack = stack.tail
        comp += v
        for (n <- adj(v) if !seen(n)) { seen(n) = true; stack = n :: stack }
      }
      out += comp.result().sorted
    }
    out.result()
  }

  /** Induced subgraph on `keep` (ascending indices); used by the
    * reduction algorithm — removing a vertex also removes its conflicts.
    */
  def inducedOn(keep: Seq[Int]): SharonGraph = {
    val kept  = keep.toVector.sorted
    val remap = kept.zipWithIndex.toMap
    SharonGraph(
      kept.map(vertices),
      kept.map(i => adj(i).collect { case j if remap.contains(j) => remap(j) }))
  }
}

object SharonGraph {

  /** Builds a graph from candidates, recomputing conflict edges
    * (Definition 6). Vertices are sorted canonically.
    */
  def fromCandidates(candidates: Seq[Candidate]): SharonGraph = {
    val vs = candidates.toVector.sorted
    val adj = vs.indices.toVector.map { i =>
      vs.indices.filter(j => j != i && vs(i).conflictsWith(vs(j))).toSet
    }
    SharonGraph(vs, adj)
  }

  /** Sharon graph construction (Algorithm 1): from the sharable-pattern
    * table (Appendix A) keep candidates with more than one query and a
    * positive benefit (Definition 5 pruning), weigh them by `BValue`, and
    * connect conflicting candidates.
    */
  def construct(rates: Rates, sharable: Map[Pattern, Vector[Query]]): SharonGraph = {
    val candidates = sharable.iterator.collect {
      case (p, qs) if qs.size > 1 => Candidate(p, qs, CostModel.bValue(rates, p, qs))
    }.filter(_.weight > 0).toVector
    fromCandidates(candidates)
  }
}
