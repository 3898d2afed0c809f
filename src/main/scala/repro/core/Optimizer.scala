package repro.core

import Model._

/** The three optimizer pipelines compared in the paper's §8.3 (Fig 15),
  * each instrumented per phase:
  *
  *  - **Greedy optimizer (GO)**: Sharon graph construction (Alg 1, incl.
  *    sharable-pattern detection), then the GWMIN plan finder (Alg 8).
  *  - **Exhaustive optimizer (EO)**: graph construction, graph expansion
  *    (Algs 5–6), then exhaustive traversal of all `2^|V|` plans.
  *  - **Sharon optimizer (SO)**: graph construction, graph expansion,
  *    graph reduction (Alg 2), then the sharing plan finder (Algs 3–4).
  *
  * All three return a sharing plan — a set of non-conflicting candidates
  * (Definition 7) — plus its score (Definition 8).
  *
  * Ahead of Alg 1, all three evaluate identical queries once, as
  * common-subexpression elimination does (Sellis, "Multiple-query
  * optimization", TODS 1988): the graph is built on the workload's
  * distinct patterns, so the score is the distinct workload's Σ BValue,
  * and each chosen candidate is widened to every query identical to one
  * of its own, so the plan is valid over the whole workload.
  */
object Optimizer {

  /** One pipeline phase: wall time and a deterministic memory proxy
    * (stored units: vertices + query refs + edges, or plans held).
    */
  final case class Phase(name: String, millis: Double, memUnits: Long)

  final case class Result(name: String,
                          plan: Vector[Candidate],
                          score: Double,
                          phases: Vector[Phase],
                          completed: Boolean) {
    def totalMillis: Double = phases.map(_.millis).sum
    def peakMemUnits: Long  = if (phases.isEmpty) 0L else phases.map(_.memUnits).max
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  private def graphMem(g: SharonGraph): Long =
    g.vertices.map(_.queries.size.toLong + 1).sum + 2L * g.edgeCount

  /** Validity check (Definition 7) — used by tests on every plan. */
  def isValid(plan: Seq[Candidate]): Boolean =
    plan.indices.forall(i =>
      (i + 1 until plan.size).forall(j => !plan(i).conflictsWith(plan(j))))

  private def weigher(rates: Rates): Expansion.Weigh =
    (p, qs) => CostModel.bValue(rates, p, qs)

  /** Builds the Sharon graph of `workload`'s distinct patterns (timed as
    * the construction phase) and runs `search` on it, then widens each
    * chosen candidate to the groups of identical queries.
    */
  private def onDistinct(workload: Workload, rates: Rates)
                        (search: (SharonGraph, Phase) => Result): Result = {
    val ((groups, g), ms) = timed {
      val (distinct, groups) = workload.distinct
      (groups, SharonGraph.construct(rates, SharablePatterns.detect(distinct)))
    }
    val r = search(g, Phase("graph construction", ms, graphMem(g)))
    r.copy(plan = r.plan.map(c => c.copy(queries = c.queries.flatMap(q => groups(q.id)))))
  }

  /** Greedy optimizer: construction + GWMIN (no expansion, §8.3). */
  def greedy(workload: Workload, rates: Rates): Result =
    onDistinct(workload, rates) { (g, constructPhase) =>
      val ((plan, score), ms) = timed(Gwmin.plan(g))
      Result("GO", plan, score,
        Vector(constructPhase, Phase("GWMIN", ms, g.size.toLong)), completed = true)
    }

  /** Default expansion budget of EO and SO: options per candidate (Eq 14). */
  val MaxOptions = 64

  /** Exhaustive optimizer: construction + expansion + full enumeration.
    * `completed = false` (empty plan) when the enumeration exceeds its
    * budget — the paper's EO does not terminate beyond 20 queries.
    */
  def exhaustive(workload: Workload, rates: Rates,
                 maxOptions: Int = MaxOptions,
                 maxPlans: Long = 1L << 24,
                 deadlineMs: Long = 20000L): Result =
    onDistinct(workload, rates) { (g, constructPhase) =>
      val (expanded, expandMs) = timed(Expansion.expandGraph(g, weigher(rates), maxOptions))
      val expandPhase = Phase("graph expansion", expandMs, graphMem(expanded))
      val (res, searchMs) = timed(PlanFinder.exhaustive(expanded, maxPlans, deadlineMs))
      res match {
        case Some(r) =>
          Result("EO", r.plan, r.score,
            Vector(constructPhase, expandPhase,
              Phase("exhaustive search", searchMs, r.metrics.plansVisited)),
            completed = true)
        case None =>
          Result("EO", Vector.empty, 0.0,
            Vector(constructPhase, expandPhase,
              Phase("exhaustive search (DNF)", searchMs, maxPlans)),
            completed = false)
      }
    }

  /** The Sharon optimizer: construction + expansion + reduction + plan
    * finder; returns an optimal plan over the expanded graph (§§4–7).
    *
    * `maxLevelWidth` is the finder's anytime cutoff. When it fires, SO
    * takes the paper's §6 fallback inside the finder phase: the better of
    * the best plan found and the GWMIN plan of the constructed graph,
    * with `completed = false`. So SO never scores below GO.
    */
  def sharon(workload: Workload, rates: Rates,
             maxOptions: Int = MaxOptions,
             maxLevelWidth: Long = 50000L): Result =
    onDistinct(workload, rates) { (g, constructPhase) =>
      val (expanded, expandMs) = timed(Expansion.expandGraph(g, weigher(rates), maxOptions))
      val expandPhase = Phase("graph expansion", expandMs, graphMem(expanded))
      val (red, reduceMs) = timed(Reduction.reduce(expanded))
      val reducePhase = Phase("graph reduction", reduceMs, graphMem(red.reduced))
      val ((found, plan, score), findMs) = timed {
        val found = PlanFinder.find(red.reduced, maxLevelWidth)
        val plan  = found.plan ++ red.conflictFree
        val score = found.score + red.conflictFree.map(_.weight).sum
        if (found.complete) (found, plan, score)
        else {
          val (gp, gs) = Gwmin.plan(g)
          if (gs > score) (found, gp, gs) else (found, plan, score)
        }
      }
      Result("SO", plan, score,
        Vector(constructPhase, expandPhase, reducePhase,
          Phase("plan finder", findMs, found.metrics.peakLevelSize + red.conflictFree.size)),
        completed = found.complete)
    }
}
