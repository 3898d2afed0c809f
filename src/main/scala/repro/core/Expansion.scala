package repro.core

import scala.collection.mutable
import Model._

/** Sharing conflict resolution (paper §7.1, Algorithms 5 and 6).
  *
  * A candidate `v = (p, Q_p)` in conflict with neighbors is expanded into
  * a set of *options* `(p, Q_p')`, `Q_p' ⊂ Q_p`, `|Q_p'| > 1`, each of
  * which drops a subset of the queries causing some conflicts of `v`
  * (Definition 16) — e.g. `(p1, {q1, q2})` no longer conflicts with
  * `(p4, {q2, q4})` (Example 13). The expanded graph contains all options
  * of all candidates with conflict edges recomputed by Definition 6
  * (Example 15) and is then reduced and searched as usual.
  *
  * Option weights are recomputed with the caller-supplied benefit
  * function; options whose benefit drops to <= 0 are non-beneficial
  * candidates and are pruned (Definition 5 / Definition 10 requires
  * positive weights — a documented refinement of Algorithm 6).
  */
object Expansion {

  type Weigh = (Pattern, Vector[Query]) => Double

  /** Sharing candidate expansion (Algorithm 5): breadth-first generation
    * of the option set `O_p` of vertex `vIdx`, rooted at the original
    * candidate. `maxOptions` bounds the exponential blow-up of Eq 14;
    * [[Optimizer]] holds its default.
    */
  def expandCandidate(g: SharonGraph, vIdx: Int, weigh: Weigh,
                      maxOptions: Int): Vector[Candidate] = {
    val v        = g.vertices(vIdx)
    val seenSets = mutable.Set[Set[Int]](v.queryIds)
    val options  = Vector.newBuilder[Candidate]
    options += v
    var current = List(v)
    var next    = List.empty[Candidate]
    var count   = 1
    while (current.nonEmpty && count < maxOptions) {
      val opt = current.head
      current = current.tail
      for (uIdx <- g.neighbors(vIdx) if count < maxOptions) {
        val u  = g.vertices(uIdx)
        val qc = opt.conflictCause(u) // queries of the option causing (v, u)
        // Drop every non-empty subset of the causing queries (Def 16);
        // the empty subset is the option itself.
        for (c <- nonEmptySubsets(qc) if count < maxOptions) {
          val rest = opt.queries.filterNot(c.contains)
          val ids  = rest.map(_.id).toSet
          if (rest.size > 1 && !seenSets.contains(ids)) {
            seenSets += ids
            val w = weigh(v.pattern, rest)
            if (w > 0) {
              val child = Candidate(v.pattern, rest, w)
              options += child
              next = child :: next
              count += 1
            }
          }
        }
      }
      if (current.isEmpty) { current = next; next = Nil }
    }
    options.result()
  }

  private def nonEmptySubsets(qs: Vector[Query]): Iterator[Set[Query]] =
    if (qs.isEmpty) Iterator.empty
    else (1 until (1 << qs.size)).iterator.map { mask =>
      qs.indices.collect { case i if (mask & (1 << i)) != 0 => qs(i) }.toSet
    }

  /** Sharing conflict resolution (Algorithm 6): expands every vertex of
    * `g` into its option set and rebuilds the graph — vertices are all
    * options, edges recomputed by Definition 6. When no vertex gains an
    * option beyond itself, the expanded graph is `g`, and no conflict is
    * re-tested.
    */
  def expandGraph(g: SharonGraph, weigh: Weigh, maxOptions: Int): SharonGraph = {
    val options = g.vertices.indices.map(expandCandidate(g, _, weigh, maxOptions))
    if (options.forall(_.size == 1)) g else SharonGraph.fromCandidates(options.flatten)
  }
}
