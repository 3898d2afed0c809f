package repro.workload

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SharablePatterns
import repro.core.Model._

/** Workload generator tests: shapes, determinism, overlap control. */
class WorkloadGenSpec extends AnyFunSuite {

  test("traffic workload matches Fig 1 (7 queries, ids 1..7)") {
    val w = WorkloadGen.traffic()
    assert(w.size == 7)
    assert(w.queries.map(_.id) == Vector(1, 2, 3, 4, 5, 6, 7))
    assert(w.queries.head.pattern == Pattern("OakSt", "MainSt", "StateSt"))
    assert(w.window == WindowSpec(600, 60)) // WITHIN 10 min SLIDE 1 min
  }

  test("purchase workload matches Fig 2 (4 queries, 20-minute window)") {
    val w = WorkloadGen.purchases()
    assert(w.size == 4)
    assert(w.window == WindowSpec(1200, 60))
    assert(w.queries.forall(_.pattern.contains(Pattern("Laptop", "Case"))))
  }

  test("generate: requested sizes and lengths") {
    val w = WorkloadGen.generate(20, 10, 30, 3, WindowSpec(600, 60))
    assert(w.size == 20)
    assert(w.queries.forall(_.pattern.length == 10))
  }

  test("generate: patterns have distinct types (assumption 3)") {
    val w = WorkloadGen.generate(30, 8, 20, 2, WindowSpec(600, 60), seed = 5)
    w.queries.foreach(q => assert(q.pattern.types.distinct.size == 8))
  }

  test("generate: deterministic in the seed") {
    val a = WorkloadGen.generate(10, 5, 12, 2, WindowSpec(600, 60), seed = 3)
    val b = WorkloadGen.generate(10, 5, 12, 2, WindowSpec(600, 60), seed = 3)
    assert(a == b)
  }

  test("generate: fewer backbones yield more sharable patterns") {
    def nCands(backbones: Int): Int =
      SharablePatterns.detect(WorkloadGen.generate(
        20, 6, 24, backbones, WindowSpec(600, 60), seed = 7)).size
    assert(nCands(1) >= nCands(6))
  }

  test("generate: workloads contain sharable patterns at paper-like settings") {
    val w = WorkloadGen.generate(20, 10, 30, 3, WindowSpec(600, 60))
    assert(SharablePatterns.detect(w).nonEmpty)
  }

  test("generate rejects patterns longer than the alphabet") {
    intercept[IllegalArgumentException](
      WorkloadGen.generate(5, 11, 10, 2, WindowSpec(600, 60)))
  }

  test("trafficClusters replicates q1-q7 over disjoint alphabets") {
    val w = WorkloadGen.trafficClusters(3)
    assert(w.size == 21)
    val alphabets = (0 until 3).map(i =>
      w.queries.slice(i * 7, i * 7 + 7).flatMap(_.pattern.types).toSet)
    assert(alphabets(0).intersect(alphabets(1)).isEmpty)
    assert(w.queries(0).pattern == Pattern("C000_OakSt", "C000_MainSt", "C000_StateSt"))
    // each cluster reproduces Table 1's candidate structure
    val d = SharablePatterns.detect(w)
    assert(d.size == 21) // 7 candidates per cluster
  }

  test("rate builders: uniform split, perWindowRates, cluster profile") {
    assert(math.abs(Rates.perWindow(1000, Seq("A", "B", "C")).perType.values.sum - 1000) < 1e-9)
    assert(StreamGen.perWindowRates(900, 4) ==
      Rates.perWindow(900, (0 until 4).map(StreamGen.typeName)))
    // Cluster query 7i + k is q_k over cluster i's copies of q_k's streets.
    val w     = WorkloadGen.trafficClusters(3)
    val r     = WorkloadGen.clusterRates(w)
    val base  = WorkloadGen.traffic().queries
    val pairs = w.queries.zipWithIndex.flatMap { case (q, j) =>
      q.pattern.types.zip(base(j % 7).pattern.types) }
    assert(r.perType.keySet == pairs.map(_._1).toSet)
    pairs.foreach { case (t, street) => assert(r(t) == WorkloadGen.trafficClusterRates(street)) }
  }

  test("trafficClusterRates covers the full street alphabet") {
    val streets = WorkloadGen.traffic().queries.flatMap(_.pattern.types).toSet
    assert(WorkloadGen.trafficClusterRates.keySet == streets)
  }
}
