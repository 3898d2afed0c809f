package repro.core

import Model._

/** Sharing benefit model (paper §3, Equations 1–8).
  *
  * Costs are CPU time-complexity estimates over per-window rates
  * ([[Model.Rates]]), so they count operations per window. They compare
  * the Non-Shared method (A-Seq per query, §3.2) against the Shared
  * method (shared pattern aggregated once, prefix and suffix combined
  * per query, §3.3).
  */
object CostModel {

  /** Eq 2: `NonShared(p, q_i) = Rate(E_1^i) × Rate(P^i)` — each matched
    * event updates one count per non-expired START event.
    */
  def nonSharedQuery(rates: Rates, q: Query): Double =
    rates(q.pattern.startType) * rates.ofPattern(q.pattern.types)

  /** Eq 3: workload-level Non-Shared cost for the candidate's queries. */
  def nonShared(rates: Rates, qs: Seq[Query]): Double =
    qs.map(nonSharedQuery(rates, _)).sum

  /** Eq 4: count-computation cost of `q_i`'s unshared prefix and suffix.
    * Empty sub-patterns contribute 0.
    */
  def comp(rates: Rates, p: Pattern, q: Query): Double = {
    val prefix = q.pattern.prefixOf(p)
    val suffix = q.pattern.suffixOf(p)
    val prefixCost =
      if (prefix.isEmpty) 0.0 else rates(prefix.head) * rates.ofPattern(prefix)
    val suffixCost =
      if (suffix.isEmpty) 0.0 else rates(suffix.head) * rates.ofPattern(suffix)
    prefixCost + suffixCost
  }

  /** Eq 5: count-combination cost
    * `Rate(E_1^i) × Rate(E_m) × Rate(E_{m+l+1}^i)`.
    *
    * The model is the paper's. The executor keeps every combination level
    * per pane (`time / slide`): at every level a completion adds one cell
    * per current pane of its START's windows, i.e. O(length/slide), never
    * one per prefix START; the final level sums its panes into windows
    * once per timestamp. Its work meter still charges one unit per
    * (completion, window) at the final level, and one per nonzero cell at
    * an intermediate level. With both a prefix and a suffix there is an
    * intermediate level, and the triple product overstates the executor's
    * work. When the prefix (resp. suffix) is empty there is a single,
    * final level — a quadratic cost, matching the literal Eq 5 with the
    * missing factor dropped. A query identical to `p` needs no combination
    * at all.
    */
  def comb(rates: Rates, p: Pattern, q: Query): Double = {
    val prefix = q.pattern.prefixOf(p)
    val suffix = q.pattern.suffixOf(p)
    (prefix.isEmpty, suffix.isEmpty) match {
      case (true, true)   => 0.0
      case (false, true)  => rates(prefix.head) * rates(p.startType)
      case (true, false)  => rates(p.startType) * rates(suffix.head)
      case (false, false) => rates(prefix.head) * rates(p.startType) * rates(suffix.head)
    }
  }

  /** Eq 6: per-query Shared cost. */
  def sharedQuery(rates: Rates, p: Pattern, q: Query): Double =
    comp(rates, p, q) + comb(rates, p, q)

  /** Eq 7: candidate-level Shared cost — `p` itself is aggregated once
    * (`Rate(E_m) × Rate(p)`), plus each query's prefix/suffix computation
    * and combination.
    */
  def shared(rates: Rates, p: Pattern, qs: Seq[Query]): Double =
    rates(p.startType) * rates.ofPattern(p.types) +
      qs.map(sharedQuery(rates, p, _)).sum

  /** Eq 8: `BValue(p, Q_p) = NonShared(p, Q_p) − Shared(p, Q_p)`
    * (Definition 5). A candidate is beneficial iff the value is > 0.
    */
  def bValue(rates: Rates, p: Pattern, qs: Seq[Query]): Double =
    nonShared(rates, qs) - shared(rates, p, qs)
}
