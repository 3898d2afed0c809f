package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Sharing plan finder tests (paper §6, Algorithms 3–4, Examples 10–12). */
class PlanFinderSpec extends AnyFunSuite {
  import PaperFixtures._

  private val reduced = Reduction.reduce(figure4Graph)
  private val found   = PlanFinder.find(reduced.reduced, Long.MaxValue)

  test("optimal plan over the reduced graph is {p2, p4, p6} with score 32") {
    assert(found.plan.map(_.pattern).toSet == Set(p2, p4, p6))
    assert(found.score == 32.0)
  }

  test("with conflict-free candidates the optimal plan is {p2,p4,p6,p7}, score 50 (Example 10)") {
    val full = found.plan ++ reduced.conflictFree
    assert(full.map(_.pattern).toSet == Set(p2, p4, p6, p7))
    assert(found.score + reduced.conflictFree.map(_.weight).sum == 50.0)
  }

  test("the valid search space of the reduced graph has 10 plans (Example 10)") {
    assert(found.metrics.plansVisited == 10)
  }

  test("the lattice is traversed up to level 3 (largest valid plan {p2,p4,p6})") {
    assert(found.metrics.levels == 3)
  }

  test("anytime cutoff: a level wider than maxLevelWidth stops the search, incomplete") {
    val cut = PlanFinder.find(reduced.reduced, maxLevelWidth = 1)
    assert(!cut.complete)
    assert(cut.plan.map(_.pattern) == Vector(p1)) // best single candidate, not the optimum
    assert(cut.score == 25.0 && found.score == 32.0)
    assert(cut.metrics.levels == 1)
  }

  test("a disconnected graph is searched per component: two query-disjoint copies of Fig 4's") {
    val copy = reduced.reduced.vertices.map(c => c.copy(queries = c.queries.map(q => q.copy(id = q.id + 10))))
    val r    = PlanFinder.find(SharonGraph.fromCandidates(reduced.reduced.vertices ++ copy), Long.MaxValue)
    assert(r.complete && r.score == 64.0)
    assert(r.metrics.plansVisited == 20 && r.metrics.levels == 3) // the union's lattice holds 120
  }

  test("optimal plan beats the greedy plan by >16% (Example 12)") {
    val (_, greedyScore) = Gwmin.plan(figure4Graph)
    val optScore = found.score + reduced.conflictFree.map(_.weight).sum
    assert(greedyScore == 43.0)
    assert(optScore == 50.0)
    assert((optScore - greedyScore) / greedyScore > 0.16)
  }

  test("level generation base case: children are non-adjacent vertex pairs") {
    val g = reduced.reduced // p1,p2,p4,p5,p6 with 6 edges
    val level1 = g.vertices.indices.map(Vector(_)).toVector
    val level2 = PlanFinder.nextLevel(g, level1)
    assert(level2.size == 4) // {p2,p4},{p2,p6},{p4,p6},{p5,p6}
    level2.foreach(p => assert(!g.hasEdge(p(0), p(1))))
  }

  test("level generation inductive case: prefix join + last-pair check (Lemma 6)") {
    val g = reduced.reduced
    val level2 = PlanFinder.nextLevel(g, g.vertices.indices.map(Vector(_)).toVector)
    val level3 = PlanFinder.nextLevel(g, level2)
    assert(level3.size == 1)
    assert(level3.head.map(g.vertices(_).pattern).toSet == Set(p2, p4, p6))
    assert(PlanFinder.nextLevel(g, level3).isEmpty)
  }

  test("children are generated without duplicates") {
    val g = figure4Graph
    val level1 = g.vertices.indices.map(Vector(_)).toVector
    val level2 = PlanFinder.nextLevel(g, level1)
    assert(level2.distinct.size == level2.size)
  }

  test("empty graph yields the empty plan") {
    val r = PlanFinder.find(SharonGraph(Vector.empty, Vector.empty), Long.MaxValue)
    assert(r.plan.isEmpty && r.score == 0.0)
  }

  test("fully connected graph yields the single heaviest vertex") {
    val g = SharonGraph.fromCandidates(Seq(cand(p1), cand(p3), cand(p5)))
    val r = PlanFinder.find(g, Long.MaxValue)
    assert(r.plan.map(_.pattern) == Vector(p1))
    assert(r.score == 25.0)
  }

  test("exhaustive search agrees with the plan finder on Fig 4") {
    val ex = PlanFinder.exhaustive(figure4Graph, Long.MaxValue, Long.MaxValue).get
    assert(ex.score == 50.0)
    assert(ex.plan.map(_.pattern).toSet == Set(p2, p4, p6, p7))
  }

  test("exhaustive search respects its plan budget (DNF)") {
    assert(PlanFinder.exhaustive(figure4Graph, maxPlans = 16, deadlineMs = Long.MaxValue).isEmpty)
  }

  test("every returned plan is valid (Definition 7)") {
    assert(Optimizer.isValid(found.plan))
    assert(Optimizer.isValid(found.plan ++ reduced.conflictFree))
  }

  test("property: plan finder score equals brute-force MWIS on random graphs") {
    for (seed <- 0L until 30L) {
      val g = RandomGraphs.graph(seed, numQueries = 4 + (seed % 6).toInt, numTypes = 8)
      if (g.size <= 16) {
        val r = PlanFinder.find(g, Long.MaxValue)
        assert(math.abs(r.score - RandomGraphs.bruteForceOpt(g)) < 1e-9, s"seed=$seed")
        assert(Optimizer.isValid(r.plan), s"seed=$seed")
      }
    }
  }

  test("property: finder and exhaustive agree on random graphs") {
    for (seed <- 40L until 60L) {
      val g = RandomGraphs.graph(seed, numQueries = 4 + (seed % 6).toInt, numTypes = 8)
      if (g.size <= 16) {
        val r  = PlanFinder.find(g, Long.MaxValue)
        val ex = PlanFinder.exhaustive(g, Long.MaxValue, Long.MaxValue).get
        assert(math.abs(r.score - ex.score) < 1e-9, s"seed=$seed")
      }
    }
  }
}
