package repro.workload

import scala.util.Random
import repro.core.Model._

/** Query workload generators (paper §8.1).
  *
  * [[traffic]] and [[purchases]] are the paper's running examples (q1–q7
  * of Fig 1, q8–q11 of Fig 2). [[generate]] produces parametric workloads
  * "similar to q1–q7 / q8–q11": queries are contiguous sub-routes of a
  * few backbone routes (random type permutations), so nearby queries
  * overlap and sharable patterns arise naturally — mirroring street
  * segments shared by bus routes or item chains shared by purchase
  * funnels. Deterministic in the seed.
  */
object WorkloadGen {

  /** The paper's default window: WITHIN 10 min SLIDE 1 min (q1). */
  val trafficWindow: WindowSpec = WindowSpec(600, 60)

  /** q8's window: WITHIN 20 min SLIDE 1 min. */
  val purchaseWindow: WindowSpec = WindowSpec(1200, 60)

  /** Traffic monitoring workload Q = {q1..q7} (Fig 1). Query ids are
    * 1-based as in the paper.
    */
  def traffic(window: WindowSpec = trafficWindow): Workload = Workload(Vector(
    Query(1, Pattern("OakSt", "MainSt", "StateSt"), window),
    Query(2, Pattern("OakSt", "MainSt", "WestSt"), window),
    Query(3, Pattern("LindenSt", "ParkAve", "OakSt", "MainSt"), window),
    Query(4, Pattern("ParkAve", "OakSt", "MainSt", "WestSt"), window),
    Query(5, Pattern("MainSt", "StateSt"), window),
    Query(6, Pattern("EastPark", "ElmSt", "ParkAve"), window),
    Query(7, Pattern("ElmSt", "ParkAve", "GreenHill"), window),
  ))

  /** Purchase monitoring workload {q8..q11} (Fig 2). */
  def purchases(window: WindowSpec = purchaseWindow): Workload = Workload(Vector(
    Query(8, Pattern("Laptop", "Case", "Adapter", "Mouse"), window),
    Query(9, Pattern("Laptop", "Case", "KeyBoardProtector"), window),
    Query(10, Pattern("Monitor", "Laptop", "Case", "Adapter"), window),
    Query(11, Pattern("Laptop", "Case", "Phone", "ScreenProtector"), window),
  ))

  /** Replicated traffic workload: `numClusters` copies of the paper's
    * q1–q7 (Fig 1), each over its own disjoint set of street types
    * (`C<i>_OakSt`, ...). Scales the running example to larger query
    * counts while preserving its Fig 4 conflict structure — the setting
    * where a greedily chosen plan is measurably worse than the optimal
    * one (Example 12, Fig 16). Query ids are `7*i + (1..7)`.
    */
  def trafficClusters(numClusters: Int, window: WindowSpec = trafficWindow): Workload = {
    val base = traffic(window)
    val queries = for {
      i <- 0 until numClusters
      q <- base.queries
    } yield Query(7 * i + q.id, Pattern(q.pattern.types.map(t => f"C$i%03d_$t")), window)
    Workload(queries.toVector)
  }

  /** Per-type rate profile (events per window *per key* — the unit in
    * which the executor's per-vehicle state actually scales) for one
    * traffic cluster: hot trunk streets vs rare side streets. Found by
    * search so that the Fig 4 conflict structure is live under the cost
    * model and the optimal plan's score beats the greedy one by ~1.9×
    * (Example 12 at execution scale).
    */
  val trafficClusterRates: Map[EventType, Double] = Map(
    "OakSt" -> 10.47, "MainSt" -> 5.18, "StateSt" -> 2.20, "WestSt" -> 2.88,
    "LindenSt" -> 0.81, "ParkAve" -> 7.21, "EastPark" -> 0.67, "ElmSt" -> 0.99,
    "GreenHill" -> 6.25)

  /** Cost-model rates of a [[trafficClusters]] workload: each type
    * `C<i>_<street>` gets its street's [[trafficClusterRates]] rate, in
    * events per window *and key*.
    */
  def clusterRates(w: Workload): Rates =
    Rates(w.queries.flatMap(_.pattern.types).distinct
      .map(t => t -> trafficClusterRates(t.dropWhile(_ != '_').drop(1))).toMap)

  /** Parametric workload over the dictionary-coded alphabet of
    * [[StreamGen]] (types `T000..T{numTypes-1}`).
    *
    * @param numQueries   workload size (paper default 20)
    * @param patternLen   pattern length of every query (paper default 10)
    * @param numTypes     alphabet size
    * @param numBackbones how many backbone routes queries are cut from;
    *                     fewer backbones = more overlap = more sharing
    */
  def generate(numQueries: Int, patternLen: Int, numTypes: Int,
               numBackbones: Int, window: WindowSpec,
               seed: Long = 42): Workload = {
    require(patternLen <= numTypes, "pattern length exceeds alphabet")
    val rnd = new Random(seed)
    // Backbones: random permutations of the alphabet; a query is a random
    // contiguous slice of length patternLen of a random backbone.
    val backbones = Vector.fill(math.max(1, numBackbones)) {
      rnd.shuffle((0 until numTypes).toVector)
    }
    val queries = (0 until numQueries).map { qi =>
      val bb    = backbones(rnd.nextInt(backbones.size))
      val start = rnd.nextInt(bb.size - patternLen + 1)
      val types = bb.slice(start, start + patternLen).map(StreamGen.typeName)
      Query(qi, Pattern(types), window)
    }.toVector
    Workload(queries)
  }
}
