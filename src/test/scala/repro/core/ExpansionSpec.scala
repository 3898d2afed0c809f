package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Sharing conflict resolution tests (paper §7.1, Algorithms 5–6,
  * Examples 13–15, Fig 11).
  */
class ExpansionSpec extends AnyFunSuite {
  import PaperFixtures._

  private val g = figure4Graph
  // Constant positive weigh: isolates the option *generation* logic.
  private val unitWeigh: Expansion.Weigh = (_, _) => 1.0

  private def optionSets(p: Pattern): Set[Set[Int]] =
    Expansion.expandCandidate(g, idx(g, p), unitWeigh, Optimizer.MaxOptions)
      .map(_.queryIds).toSet

  test("the original candidate is always an option (root of the tree)") {
    assert(optionSets(p1).contains(Set(1, 2, 3, 4)))
  }

  test("Fig 11: dropping the p2/p3 conflict cause {q3,q4} yields (p1,{q1,q2})") {
    assert(optionSets(p1).contains(Set(1, 2)))
  }

  test("Example 13: option (p1,{q1,q3}) exists and resolves the p4/p5 conflicts") {
    val opts = Expansion.expandCandidate(g, idx(g, p1), unitWeigh, Optimizer.MaxOptions)
    val o13  = opts.find(_.queryIds == Set(1, 3)).get
    assert(!o13.conflictsWith(cand(p4)))
    assert(!o13.conflictsWith(cand(p5)))
    // but it still conflicts with p2 (overlap in q3) and p6 (in q1).
    assert(o13.conflictsWith(cand(p2)))
    assert(o13.conflictsWith(cand(p6)))
  }

  test("BFS composition reaches all query subsets of size >= 2 for p1") {
    // p1's conflicts are caused by q1 (p6), q2+q4 (p4, p5), q3+q4 (p2, p3):
    // composing drops can reach every 2- and 3-subset of {q1..q4}.
    val expected = Set(1, 2, 3, 4).subsets().filter(_.size >= 2).toSet
    assert(optionSets(p1) == expected)
  }

  test("options never shrink below two queries (Definition 3)") {
    for (p <- table1.keys)
      assert(Expansion.expandCandidate(g, idx(g, p), unitWeigh, Optimizer.MaxOptions)
        .forall(_.queries.size > 1))
  }

  test("a conflict-free candidate has only itself as option") {
    assert(optionSets(p7) == Set(Set(6, 7)))
  }

  test("two-query candidates cannot drop anything: only the original option") {
    // p2 = (ParkAve, OakSt) with {q3, q4}: dropping either query leaves 1.
    assert(optionSets(p2) == Set(Set(3, 4)))
  }

  test("options with non-positive benefit are pruned") {
    val negWeigh: Expansion.Weigh = (_, qs) => if (qs.size >= 4) 1.0 else -1.0
    val opts = Expansion.expandCandidate(g, idx(g, p1), negWeigh, Optimizer.MaxOptions)
    assert(opts.map(_.queryIds) == Vector(Set(1, 2, 3, 4)))
  }

  test("maxOptions caps the exponential blow-up (Eq 14)") {
    val opts = Expansion.expandCandidate(g, idx(g, p1), unitWeigh, maxOptions = 3)
    assert(opts.size <= 4) // root + up to 3 generated
  }

  test("maxOptions = 1 keeps every candidate as its only option: the graph is unchanged") {
    assert(Expansion.expandGraph(g, unitWeigh, maxOptions = 1) == g)
  }

  test("no candidate gains an option: the expanded graph is the constructed one") {
    // Fig 4 without p1: every candidate has two queries, so none can drop one.
    val pairs = SharonGraph.fromCandidates(g.vertices.filter(_.queries.size == 2))
    assert(pairs.size == 6 && pairs.edgeCount > 0)
    val eg       = Expansion.expandGraph(pairs, unitWeigh, Optimizer.MaxOptions)
    val expected = SharonGraph.fromCandidates(pairs.vertices)
    assert(eg.vertices == expected.vertices)
    assert(eg.adj == expected.adj)
  }

  test("Example 15: expanded graph contains p1's options and singleton sets elsewhere") {
    val eg = Expansion.expandGraph(g, unitWeigh, Optimizer.MaxOptions)
    val p1Opts = eg.vertices.filter(_.pattern == p1)
    assert(p1Opts.size == 11) // all subsets of {q1..q4} of size >= 2
    // p2 has only its original candidate.
    assert(eg.vertices.count(_.pattern == p2) == 1)
    assert(eg.vertices.count(_.pattern == p7) == 1)
  }

  test("expanded graph edges follow Definition 6 between options") {
    val eg = Expansion.expandGraph(g, unitWeigh, Optimizer.MaxOptions)
    for (i <- 0 until eg.size; j <- (i + 1) until eg.size) {
      assert(eg.hasEdge(i, j) == eg.vertices(i).conflictsWith(eg.vertices(j)),
        s"${eg.vertices(i)} vs ${eg.vertices(j)}")
    }
  }

  test("same-pattern options with a common query are in conflict") {
    val eg  = Expansion.expandGraph(g, unitWeigh, Optimizer.MaxOptions)
    val o12 = eg.vertices.indexWhere(v => v.pattern == p1 && v.queryIds == Set(1, 2))
    val o13 = eg.vertices.indexWhere(v => v.pattern == p1 && v.queryIds == Set(1, 3))
    assert(eg.hasEdge(o12, o13)) // both would share p1 for q1
  }

  test("same-pattern options with disjoint query sets do not conflict") {
    val eg  = Expansion.expandGraph(g, unitWeigh, Optimizer.MaxOptions)
    val o12 = eg.vertices.indexWhere(v => v.pattern == p1 && v.queryIds == Set(1, 2))
    val o34 = eg.vertices.indexWhere(v => v.pattern == p1 && v.queryIds == Set(3, 4))
    assert(!eg.hasEdge(o12, o34))
  }

  test("expansion opens sharing opportunities: expanded optimum >= original optimum") {
    for (seed <- 0L until 15L) {
      val og = RandomGraphs.graph(seed, numQueries = 5, numTypes = 8)
      if (og.size > 0 && og.size <= 10) {
        val weigh: Expansion.Weigh =
          (p, qs) => CostModel.bValue(RandomGraphs.rates(8), p, qs)
        val eg = Expansion.expandGraph(og, weigh, Optimizer.MaxOptions)
        if (eg.size <= 16) {
          assert(RandomGraphs.bruteForceOpt(eg) >= RandomGraphs.bruteForceOpt(og) - 1e-9,
            s"seed=$seed")
        }
      }
    }
  }
}
