package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** GWMIN tests (Appendix B, Algorithm 8; Eq 10) including the paper's
  * Example 12 greedy plan and the guaranteed-weight property on random
  * graphs.
  */
class GwminSpec extends AnyFunSuite {
  import PaperFixtures._

  private val g = figure4Graph

  test("greedy plan on Fig 4 is {p1, p7} with score 43 (Example 12)") {
    val (plan, score) = Gwmin.plan(g)
    assert(plan.map(_.pattern).toSet == Set(p1, p7))
    assert(score == 43.0)
  }

  test("greedy picks p7 first (ratio 18/1 is maximal)") {
    assert(g.vertices(Gwmin.independentSet(g).head).pattern == p7)
  }

  test("result is an independent set") {
    val is = Gwmin.independentSet(g)
    for (a <- is; b <- is if a != b) assert(!g.hasEdge(a, b))
  }

  test("empty graph yields empty set") {
    assert(Gwmin.independentSet(SharonGraph(Vector.empty, Vector.empty)).isEmpty)
  }

  test("singleton graph yields the vertex") {
    val sg = SharonGraph.fromCandidates(Seq(cand(p7)))
    assert(Gwmin.plan(sg)._2 == 18.0)
  }

  test("fully conflicting clique yields the single best ratio vertex") {
    // p1, p3, p5 pairwise conflict (all overlap in q4 via OakSt/MainSt).
    val sg = SharonGraph.fromCandidates(Seq(cand(p1), cand(p3), cand(p5)))
    assert(sg.edgeCount == 3)
    val (plan, score) = Gwmin.plan(sg)
    assert(plan.size == 1)
    assert(score == 25.0) // p1: 25/3 beats 20/3 and 12/3
  }

  test("property: GWMIN weight meets the Eq 10 guarantee on random graphs") {
    for (seed <- 0L until 40L) {
      val rg = RandomGraphs.graph(seed, numQueries = 4 + (seed % 8).toInt)
      val (_, score) = Gwmin.plan(rg)
      assert(score >= rg.guaranteedWeight - 1e-9, s"seed=$seed")
    }
  }

  test("property: GWMIN returns an independent set on random graphs") {
    for (seed <- 0L until 40L) {
      val rg = RandomGraphs.graph(seed, numQueries = 4 + (seed % 8).toInt)
      val is = Gwmin.independentSet(rg)
      for (a <- is; b <- is if a != b) assert(!rg.hasEdge(a, b), s"seed=$seed")
    }
  }
}
