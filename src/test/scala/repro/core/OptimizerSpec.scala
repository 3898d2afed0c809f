package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** End-to-end optimizer pipeline tests (paper §8.3: GO, EO, SO). */
class OptimizerSpec extends AnyFunSuite {
  import PaperFixtures._

  // Unit rates keep combination cheap so the traffic workload has
  // beneficial candidates (at high rates the cubic Eq 5 term kills all
  // partial-overlap sharing — tested in CostModelSpec).
  private val rates = Rates(
    workload.queries.flatMap(_.pattern.types).distinct.map(_ -> 1.0).toMap)

  test("SO returns a valid plan on the traffic workload") {
    val r = Optimizer.sharon(workload, rates)
    assert(r.completed)
    assert(Optimizer.isValid(r.plan))
    assert(r.score > 0)
  }

  test("SO anytime cutoff: not completed, still valid, between GO and the exact SO") {
    val cut = Optimizer.sharon(workload, rates, maxLevelWidth = 1)
    assert(!cut.completed)
    assert(Optimizer.isValid(cut.plan))
    assert(cut.score >= Optimizer.greedy(workload, rates).score)
    assert(cut.score <= Optimizer.sharon(workload, rates).score)
  }

  test("SO has the four phases of Fig 15") {
    val r = Optimizer.sharon(workload, rates)
    assert(r.phases.map(_.name) == Vector("graph construction",
      "graph expansion", "graph reduction", "plan finder"))
  }

  test("GO has two phases: construction + GWMIN") {
    val r = Optimizer.greedy(workload, rates)
    assert(r.phases.map(_.name) == Vector("graph construction", "GWMIN"))
    assert(Optimizer.isValid(r.plan))
  }

  test("EO has three phases and agrees with SO on the traffic workload") {
    val eo = Optimizer.exhaustive(workload, rates)
    val so = Optimizer.sharon(workload, rates)
    assert(eo.completed)
    assert(math.abs(eo.score - so.score) < 1e-9)
  }

  test("SO score >= GO score always (optimal vs greedy)") {
    for (seed <- 0L until 20L) {
      val w = RandomGraphs.workload(seed, numQueries = 6, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 3.0)
      val so = Optimizer.sharon(w, r)
      val go = Optimizer.greedy(w, r)
      assert(so.score >= go.score - 1e-9, s"seed=$seed")
    }
  }

  test("SO without expansion equals brute-force MWIS on the original graph") {
    for (seed <- 0L until 15L) {
      val w = RandomGraphs.workload(seed, numQueries = 5, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 2.0)
      val g = SharonGraph.construct(r, SharablePatterns.detect(w.distinct._1))
      if (g.size <= 14) {
        val so = Optimizer.sharon(w, r, maxOptions = 1)
        assert(math.abs(so.score - RandomGraphs.bruteForceOpt(g)) < 1e-9, s"seed=$seed")
      }
    }
  }

  test("SO and EO agree on random workloads (same expanded graph)") {
    for (seed <- 0L until 10L) {
      val w = RandomGraphs.workload(seed, numQueries = 5, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 2.0)
      val so = Optimizer.sharon(w, r)
      val eo = Optimizer.exhaustive(w, r)
      if (eo.completed)
        assert(math.abs(so.score - eo.score) < 1e-9, s"seed=$seed")
    }
  }

  test("expansion can only help: SO(expand) >= SO(no expand)") {
    for (seed <- 0L until 15L) {
      val w = RandomGraphs.workload(seed, numQueries = 6, numTypes = 8)
      val r = RandomGraphs.rates(8, rate = 3.0)
      assert(Optimizer.sharon(w, r).score >=
        Optimizer.sharon(w, r, maxOptions = 1).score - 1e-9, s"seed=$seed")
    }
  }

  test("plans produced by all three optimizers are valid") {
    for (seed <- 20L until 30L) {
      val w = RandomGraphs.workload(seed, numQueries = 7, numTypes = 10)
      val r = RandomGraphs.rates(10, rate = 2.0)
      assert(Optimizer.isValid(Optimizer.sharon(w, r).plan), s"SO seed=$seed")
      assert(Optimizer.isValid(Optimizer.greedy(w, r).plan), s"GO seed=$seed")
      val eo = Optimizer.exhaustive(w, r)
      if (eo.completed) assert(Optimizer.isValid(eo.plan), s"EO seed=$seed")
    }
  }

  test("workload with no sharable patterns yields the empty (Non-Shared) plan") {
    val w = Workload(WindowSpec(600, 60), Seq(Pattern("A", "B"), Pattern("C", "D")))
    val r = Rates(Map("A" -> 1.0, "B" -> 1.0, "C" -> 1.0, "D" -> 1.0))
    val so = Optimizer.sharon(w, r)
    assert(so.plan.isEmpty && so.score == 0.0)
  }

  test("identical queries: each optimizer plans the distinct patterns; its plan names every copy") {
    // q1 and q4 twice more, under ids 8-10.
    val copies = Vector(workload.queries(0).copy(id = 8), workload.queries(3).copy(id = 9),
      workload.queries(0).copy(id = 10))
    val w           = Workload(workload.queries ++ copies)
    val (d, groups) = w.distinct
    assert(d == workload)
    assert(groups(1).map(_.id) == Vector(1, 8, 10) && groups(4).map(_.id) == Vector(4, 9))
    def all(w: Workload) =
      Seq(Optimizer.greedy(w, rates), Optimizer.sharon(w, rates), Optimizer.exhaustive(w, rates))
    for ((r, a) <- all(w).zip(all(workload))) withClue(r.name) {
      assert(r.completed && Optimizer.isValid(r.plan))
      assert(r.score == a.score) // the distinct workload's score
      assert(r.plan.map(_.queryIds) == a.plan.map(c => c.queryIds.flatMap(i => groups(i).map(_.id))))
      val named = r.plan.flatMap(_.queryIds).toSet
      assert(named.contains(1) && named.contains(4) && copies.forall(q => named.contains(q.id)))
    }
  }

  test("SO completes on the 120-query Fig 14 workload (14 distinct patterns)") {
    val win = WindowSpec(60, 6)
    val w   = WorkloadGen.generate(120, 10, 16, 2, win, 23)
    assert(w.distinct._1.size == 14)
    val so  = Optimizer.sharon(w, StreamGen.perWindowRates(10000, 16),
      maxOptions = 64, maxLevelWidth = 50000)
    assert(so.completed && Optimizer.isValid(so.plan))
  }

  test("EO reports DNF on a tight budget while SO completes") {
    val w = RandomGraphs.workload(3L, numQueries = 12, patternLen = 5, numTypes = 10)
    val r = RandomGraphs.rates(10, rate = 3.0)
    val eo = Optimizer.exhaustive(w, r, maxPlans = 64)
    val so = Optimizer.sharon(w, r)
    assert(!eo.completed || so.completed) // SO always completes here
    assert(so.completed)
  }
}
