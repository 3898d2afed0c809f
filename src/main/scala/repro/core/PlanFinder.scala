package repro.core

/** Sharing plan finder (paper §6, Algorithms 3 and 4).
  *
  * Traverses the lattice of *valid* sharing plans (sets of pairwise
  * non-conflicting candidates, Definition 7) breadth-first, level by
  * level. A level-(s+1) plan is generated Apriori-style from two valid
  * level-s plans that agree on their first s−1 candidates whose last
  * candidates are non-adjacent — by Lemma 6 the result is valid, and by
  * Lemma 7 every valid plan is generated. Only one level is held in
  * memory at a time. Since vertex weights are positive, the best plan is
  * always found at the deepest levels (Lemma 3), but we track the best
  * score seen anywhere for robustness.
  *
  * Plans are vectors of vertex indices in ascending (canonical) order —
  * the "alphabetical by pattern" ordering of §6.
  */
object PlanFinder {

  /** Search metrics backing the Fig 15 reproduction: number of plans
    * materialized and the largest level held in memory (the finder's peak
    * memory is `O(max level size)`, §6 complexity analysis).
    */
  final case class Metrics(plansVisited: Long, peakLevelSize: Long, levels: Int)

  final case class Result(plan: Vector[Candidate], score: Double, metrics: Metrics,
                          complete: Boolean = true)

  /** Optimal plan over `g` (conflict-free candidates are assumed to have
    * been removed by [[Reduction]]; the caller unions them back in).
    *
    * Each connected component is searched on its own: conflicts never
    * cross components and scores are additive (Definition 8), so the union
    * of the components' optima is the optimum of `g`. `plansVisited` sums
    * over components; `peakLevelSize` and `levels` are their maxima.
    *
    * `maxLevelWidth` bounds the plans held per lattice level: a component
    * whose level would exceed it keeps the best plan seen so far, and the
    * result has `complete = false` — the anytime cutoff behind the §6
    * fallback of [[Optimizer.sharon]].
    */
  def find(g: SharonGraph, maxLevelWidth: Long): Result = {
    val parts = g.components.map(c => findConnected(g.inducedOn(c), maxLevelWidth))
    val ms    = parts.map(_.metrics)
    Result(parts.flatMap(_.plan), parts.map(_.score).sum,
      Metrics(ms.map(_.plansVisited).sum, (0L +: ms.map(_.peakLevelSize)).max,
        (0 +: ms.map(_.levels)).max),
      parts.forall(_.complete))
  }

  /** The lattice search of one connected component. */
  private def findConnected(g: SharonGraph, maxLevelWidth: Long): Result = {
    var best      = Vector.empty[Int]
    var bestScore = 0.0
    var visited   = 0L
    var peak      = 0L
    var levels    = 0

    def score(plan: Vector[Int]): Double = plan.map(g.vertices(_).weight).sum

    // Level 1: every single candidate is a valid plan (Definition 7).
    var level: Vector[Vector[Int]] = g.vertices.indices.map(Vector(_)).toVector
    var complete = true
    while (level.nonEmpty) {
      levels += 1
      visited += level.size
      peak = math.max(peak, level.size.toLong)
      for (p <- level) {
        val s = score(p)
        if (s > bestScore) { bestScore = s; best = p }
      }
      // Anytime cutoff: a level wider than the budget ends the search.
      complete = level.size <= maxLevelWidth
      level = if (complete) nextLevel(g, level) else Vector.empty
    }
    Result(best.map(g.vertices), bestScore, Metrics(visited, peak, levels), complete)
  }

  /** Level generation (Algorithm 3): all valid plans of size s+1 from the
    * valid plans of size s. Parents arrive (and children leave) in
    * lexicographic order of their index vectors.
    */
  def nextLevel(g: SharonGraph, parents: Vector[Vector[Int]]): Vector[Vector[Int]] = {
    val children = Vector.newBuilder[Vector[Int]]
    // Group parents sharing the first s-1 decisions; within a group the
    // last elements are distinct and ascending (lexicographic input).
    var i = 0
    while (i < parents.size) {
      val prefix = parents(i).init
      var end = i + 1
      while (end < parents.size && parents(end).init == prefix) end += 1
      var a = i
      while (a < end) {
        val lastA = parents(a).last
        var b = a + 1
        while (b < end) {
          val lastB = parents(b).last
          if (!g.hasEdge(lastA, lastB)) children += parents(a) :+ lastB
          b += 1
        }
        a += 1
      }
      i = end
    }
    children.result()
  }

  /** Exhaustive search over *all* `2^|V|` candidate subsets (the EO
    * baseline of §8.3), validity-checked one by one. Returns None if the
    * enumeration would exceed `maxPlans` or `deadlineMs` — the paper's EO
    * "fails to terminate for more than 20 queries".
    */
  def exhaustive(g: SharonGraph, maxPlans: Long, deadlineMs: Long): Option[Result] = {
    val n = g.size
    if (n >= 62 || (1L << n) > maxPlans) return None
    val start     = System.nanoTime()
    var best      = Vector.empty[Int]
    var bestScore = 0.0
    var visited   = 0L
    var mask      = 1L
    val total     = 1L << n
    while (mask < total) {
      if ((mask & 0xFFFF) == 0 &&
          (System.nanoTime() - start) / 1000000L > deadlineMs) return None
      val idxs = (0 until n).filter(i => (mask & (1L << i)) != 0)
      visited += 1
      val valid = idxs.indices.forall { a =>
        (a + 1 until idxs.size).forall(b => !g.hasEdge(idxs(a), idxs(b)))
      }
      if (valid) {
        val s = idxs.map(g.vertices(_).weight).sum
        if (s > bestScore) { bestScore = s; best = idxs.toVector }
      }
      mask += 1
    }
    Some(Result(best.map(g.vertices), bestScore, Metrics(visited, total, n)))
  }
}
