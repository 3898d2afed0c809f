package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Graph reduction tests (paper §5, Algorithm 2, Examples 7–9). */
class ReductionSpec extends AnyFunSuite {
  import PaperFixtures._

  private val res = Reduction.reduce(figure4Graph)

  test("p7 is extracted as conflict-free (Example 8)") {
    assert(res.conflictFree.map(_.pattern) == Vector(p7))
  }

  test("p3 is pruned as conflict-ridden (Example 7)") {
    assert(res.prunedConflictRidden(figure4Graph).map(_.pattern) == Vector(p3))
  }

  test("a pruned candidate is reported even when its joined types equal a kept one's") {
    val win = WindowSpec(60, 6)
    // In each pair, X's and Y's types read the same once joined, the second
    // pair even when joined with U+0001.
    for ((xs, ys) <- Seq((Vector("A", "BC"), Vector("AB", "C")),
                         (Vector("A\u0001B", "C"), Vector("A", "B\u0001C")))) {
      val qs = Vector(Query(1, Pattern(xs ++ ys), win), Query(2, Pattern(ys ++ xs), win))
      val x  = Candidate(Pattern(xs), qs, 1.0)
      val y  = Candidate(Pattern(ys), qs, 2.0)
      val r  = Reduction.Result(SharonGraph.fromCandidates(Seq(y)), Vector.empty)
      assert(r.prunedConflictRidden(SharonGraph.fromCandidates(Seq(x, y))) == Vector(x), xs)
    }
  }

  test("reduced graph is {p1, p2, p4, p5, p6} — 2^5 search space (Example 9)") {
    assert(res.reduced.vertices.map(_.pattern).toSet == Set(p1, p2, p4, p5, p6))
  }

  test("reduction preserves weights") {
    res.reduced.vertices.foreach(v => assert(v.weight == weights(v.pattern)))
  }

  test("reduced graph keeps the residual conflicts") {
    val g = res.reduced
    def i(p: Pattern) = g.vertices.indexWhere(_.pattern == p)
    assert(g.neighbors(i(p1)).map(g.vertices(_).pattern) == Set(p2, p4, p5, p6))
    assert(g.neighbors(i(p2)).map(g.vertices(_).pattern) == Set(p1, p5))
    assert(g.neighbors(i(p6)).map(g.vertices(_).pattern) == Set(p1))
  }

  test("empty graph reduces to empty") {
    val r = Reduction.reduce(SharonGraph(Vector.empty, Vector.empty))
    assert(r.reduced.size == 0 && r.conflictFree.isEmpty)
  }

  test("all-conflict-free graph moves everything to F") {
    val g = SharonGraph.fromCandidates(Seq(cand(p2), cand(p4))) // disjoint spans
    val r = Reduction.reduce(g)
    assert(r.reduced.size == 0)
    assert(r.conflictFree.map(_.pattern).toSet == Set(p2, p4))
  }

  test("regression: paper's fixed-guarantee variant would over-prune isolated vertices") {
    // Two isolated vertices: guarantee(original) = w1 + w2; after moving
    // the heavy one to F the light one must survive (it is in the optimal
    // plan). Our per-sweep recomputation keeps it.
    val a = cand(p2, Seq(3, 4), 10.0)
    val b = cand(p7, Seq(6, 7), 1.0)
    val r = Reduction.reduce(SharonGraph.fromCandidates(Seq(a, b)))
    assert(r.conflictFree.map(_.weight).toSet == Set(10.0, 1.0))
  }

  test("property: reduction preserves the optimal score (Definition 13 safety)") {
    for (seed <- 0L until 40L) {
      val g = RandomGraphs.graph(seed, numQueries = 4 + (seed % 6).toInt, numTypes = 8)
      if (g.size <= 16) {
        val r = Reduction.reduce(g)
        val optAfter =
          RandomGraphs.bruteForceOpt(r.reduced) + r.conflictFree.map(_.weight).sum
        assert(math.abs(optAfter - RandomGraphs.bruteForceOpt(g)) < 1e-9, s"seed=$seed")
      }
    }
  }
}
