package repro.core

/** Sharon graph reduction (paper §5, Algorithm 2).
  *
  * Two candidate classes are removed from the graph without losing
  * optimality:
  *
  *  - *conflict-free* candidates (degree 0) belong to every optimal plan
  *    (Definition 14) — they are collected into `conflictFree`;
  *  - *conflict-ridden* candidates, whose best imaginable plan score
  *    `Score_max(v)` (Definition 12) is below GWMIN's guaranteed weight
  *    (Eq 10, Definition 13), cannot be in an optimal plan.
  *
  * Deviation from the paper's pseudo-code (documented in DESIGN.md): the
  * guarantee is recomputed on the *current* residual graph at every sweep
  * instead of fixing the original graph's value. The original variant can
  * over-prune once conflict-free weight has been moved out of the graph
  * (both sides of inequality 12 must refer to the same residual problem);
  * on the paper's running example both variants coincide (tested).
  */
object Reduction {

  final case class Result(reduced: SharonGraph, conflictFree: Vector[Candidate]) {
    def prunedConflictRidden(original: SharonGraph): Vector[Candidate] = {
      val kept = (reduced.vertices ++ conflictFree).toSet
      original.vertices.filterNot(kept)
    }
  }

  def reduce(graph: SharonGraph): Result = {
    var g            = graph
    val conflictFree = Vector.newBuilder[Candidate]
    var changed      = true
    while (changed && g.size > 0) {
      changed = false
      val guarantee = g.guaranteedWeight
      val free      = g.vertices.indices.filter(g.degree(_) == 0)
      if (free.nonEmpty) {
        conflictFree ++= free.map(g.vertices)
        g = g.inducedOn(g.vertices.indices.filterNot(free.toSet))
        changed = true
      } else {
        // Prune one conflict-ridden candidate per sweep: each removal
        // changes degrees, hence Score_max and the guarantee.
        g.vertices.indices.find(i => g.scoreMax(i) < guarantee) match {
          case Some(i) =>
            g = g.inducedOn(g.vertices.indices.filterNot(_ == i))
            changed = true
          case None => ()
        }
      }
    }
    Result(g, conflictFree.result())
  }
}
