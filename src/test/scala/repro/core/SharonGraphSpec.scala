package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Sharon graph tests (paper §4, Definition 6/10, Algorithm 1) —
  * reproduces the adjacency of Fig 4 and the degrees implied by
  * Example 7's guaranteed-weight computation.
  */
class SharonGraphSpec extends AnyFunSuite {
  import PaperFixtures._

  private val g = figure4Graph
  private def deg(p: Pattern): Int = g.degree(idx(g, p))
  private def adjacent(a: Pattern, b: Pattern): Boolean =
    g.hasEdge(idx(g, a), idx(g, b))

  test("graph has the 7 candidates of Table 1 as vertices") {
    assert(g.size == 7)
    assert(g.vertices.map(_.pattern).toSet == table1.keySet)
  }

  test("degrees match Example 7: 5,3,4,3,4,1,0 for p1..p7") {
    assert(Seq(p1, p2, p3, p4, p5, p6, p7).map(deg) == Seq(5, 3, 4, 3, 4, 1, 0))
  }

  test("p1 conflicts with p2..p6 but not p7 (Fig 4)") {
    assert(Seq(p2, p3, p4, p5, p6).forall(adjacent(p1, _)))
    assert(!adjacent(p1, p7))
  }

  test("p2 and p4 do not conflict (Example 5: disjoint spans in q4)") {
    assert(!adjacent(p2, p4))
  }

  test("p2 conflicts with p3 and p5") {
    assert(adjacent(p2, p3) && adjacent(p2, p5))
  }

  test("p6 conflicts only with p1 (overlap in q1)") {
    assert(g.neighbors(idx(g, p6)) == Set(idx(g, p1)))
  }

  test("p7 is conflict-free (Example 8)") {
    assert(deg(p7) == 0)
  }

  test("conflicts are symmetric") {
    for (i <- 0 until g.size; j <- 0 until g.size)
      assert(g.hasEdge(i, j) == g.hasEdge(j, i))
  }

  test("no self-loops") {
    assert((0 until g.size).forall(i => !g.hasEdge(i, i)))
  }

  test("edge count of Fig 4 is 10") {
    assert(g.edgeCount == 10)
  }

  test("guaranteed weight of Fig 4 is 25/6+9/4+12/5+15/4+20/5+8/2+18 ≈ 38.57 (Example 7)") {
    val expected = 25.0 / 6 + 9.0 / 4 + 12.0 / 5 + 15.0 / 4 + 20.0 / 5 + 8.0 / 2 + 18.0 / 1
    assert(math.abs(g.guaranteedWeight - expected) < 1e-9)
    assert(math.abs(g.guaranteedWeight - 38.5666) < 1e-3)
  }

  test("Score_max(p3) = 12 + 8 + 18 = 38 (Example 7)") {
    assert(g.scoreMax(idx(g, p3)) == 38.0)
  }

  test("Score_max of a conflict-free vertex is the total weight") {
    assert(g.scoreMax(idx(g, p7)) == g.vertices.map(_.weight).sum)
  }

  test("no conflict without a common query even if patterns overlap") {
    // p5 ⊂ q2,q4 and p6 ⊂ q1,q5 overlap on MainSt but share no query.
    assert(!adjacent(p5, p6))
  }

  test("Algorithm 1 prunes non-beneficial candidates") {
    // Unit rates make some candidates non-beneficial; the constructed
    // graph must contain only BValue > 0 vertices.
    val rates = Rates(workload.queries.flatMap(_.pattern.types).distinct.map(_ -> 1.0).toMap)
    val built = SharonGraph.construct(rates, SharablePatterns.detect(workload))
    assert(built.vertices.forall(_.weight > 0))
    assert(built.vertices.forall(v =>
      CostModel.bValue(rates, v.pattern, v.queries) == v.weight))
  }

  test("construct: vertices are subsets of the sharable-pattern table") {
    val rates = Rates(workload.queries.flatMap(_.pattern.types).distinct.map(_ -> 2.0).toMap)
    val built = SharonGraph.construct(rates, SharablePatterns.detect(workload))
    assert(built.vertices.map(_.pattern).toSet.subsetOf(table1.keySet))
    // Query sets are the full containing sets (assumption 1).
    built.vertices.foreach(v => assert(v.queries.map(_.id) == table1(v.pattern)))
  }

  test("fromCandidates gives one vertex order for any arrival order, even for types holding U+0001") {
    val win = WindowSpec(60, 6)
    // Joined with U+0001, these two patterns' types read the same.
    val (xs, ys) = (Vector("A\u0001B", "C"), Vector("A", "B\u0001C"))
    val qs    = Vector(Query(8, Pattern(xs ++ ys), win), Query(9, Pattern(ys ++ xs), win))
    val cands = table1.keys.map(cand).toVector ++
      Vector(Candidate(Pattern(xs), qs, 1.0), Candidate(Pattern(ys), qs, 2.0))
    val orders = (0 until 20).map(seed =>
      SharonGraph.fromCandidates(new scala.util.Random(seed).shuffle(cands)).vertices)
    assert(orders.distinct.size == 1)
  }

  test("on ordinary type names the order is that of the U+0001-joined types and query ids") {
    val qs = Vector(1, 2, 10).map(i => Query(i, Pattern("X", "Y"), WindowSpec(60, 6)))
    val cands = for {
      types <- Seq(Vector("A"), Vector("A", "B"), Vector("A", "B", "C"), Vector("A", "BC"),
                   Vector("AB", "C"), Vector("AB"), Vector("B", "A"), Vector("T1"), Vector("T10"))
      ids   <- Seq(Seq(0, 1), Seq(0, 2), Seq(1, 2), Seq(0, 1, 2))
    } yield Candidate(Pattern(types), ids.map(qs).toVector, 1.0)
    def joined(c: Candidate) =
      c.pattern.types.mkString("\u0001") + "|" + c.queries.map(_.id).sorted.mkString(",")
    assert(SharonGraph.fromCandidates(cands.reverse).vertices == cands.sortBy(joined))
  }

  test("inducedOn keeps weights and remaps edges") {
    val keep = (0 until g.size).filterNot(_ == idx(g, p3))
    val h = g.inducedOn(keep)
    assert(h.size == 6)
    assert(h.vertices.map(_.pattern).toSet == table1.keySet - p3)
    val hp2 = h.vertices.indexWhere(_.pattern == p2)
    // p2's neighbors were p1,p3,p5 -> now p1,p5.
    assert(h.neighbors(hp2).map(h.vertices(_).pattern) == Set(p1, p5))
  }
}
