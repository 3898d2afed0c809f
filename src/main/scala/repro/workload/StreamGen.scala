package repro.workload

import org.apache.spark.sql.{Column, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.core.Model.{EventType, Rates}
import repro.exec.Event

/** Synthetic event streams standing in for the paper's data sets (§8.1):
  * NYC Taxi (real, 330 GB), Linear Road (simulator), and e-commerce
  * (private generator) are unavailable offline — see DESIGN.md. Streams
  * share the paper's schema: second-granularity timestamp, key (vehicle /
  * customer id), event type (position / item). Generation is
  * deterministic in the seed (hash-based, partitioning-independent).
  *
  * Event types are dictionary-coded 0..numTypes-1; [[typeName]] gives the
  * symbolic alphabet shared with [[WorkloadGen]].
  */
object StreamGen {

  def typeName(i: Int): EventType = f"T$i%03d"

  def typeIds(numTypes: Int): Map[EventType, Int] =
    (0 until numTypes).map(i => typeName(i) -> i).toMap

  /** Uniform stream: `numEvents` events spread evenly over
    * `durationSec`, types and keys i.i.d. uniform — the taxi stand-in.
    */
  def uniform(spark: SparkSession, numEvents: Long, durationSec: Long,
              numTypes: Int, numKeys: Int, seed: Long = 7): Dataset[Event] =
    events(spark, numEvents, numKeys, seed)(
      _ * durationSec / numEvents, pmod(_, lit(numTypes)))

  /** Linear-Road-like stream: event rate ramps up over the run (the LR
    * generator's rate grows from dozens to thousands of events/s). Times
    * follow `duration * sqrt(u)` so density grows linearly with time.
    */
  def linearRoadLike(spark: SparkSession, numEvents: Long, durationSec: Long,
                     numTypes: Int, numKeys: Int, seed: Long = 11): Dataset[Event] =
    events(spark, numEvents, numKeys, seed)(
      id => floor(lit(durationSec) * sqrt(id.cast("double") / numEvents)),
      pmod(_, lit(numTypes)))

  /** Weighted-type stream: type `i` is drawn with probability
    * `weights(i) / Σ weights`, uniformly over time and keys. Used when
    * the workload's cost structure needs non-uniform per-type rates
    * (e.g. hot trunk streets vs rare side streets in the taxi scenario).
    */
  def weighted(spark: SparkSession, numEvents: Long, durationSec: Long,
               weights: IndexedSeq[Double], numKeys: Int,
               seed: Long = 19): Dataset[Event] = {
    require(weights.nonEmpty && weights.forall(_ >= 0) && weights.sum > 0)
    val cum   = weights.scanLeft(0.0)(_ + _).tail.toArray
    val total = cum.last
    val pick = udf { (u: Double) =>
      val x  = u * total
      var lo = 0; var hi = cum.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) <= x) lo = mid + 1 else hi = mid
      }
      lo
    }
    events(spark, numEvents, numKeys, seed)(
      _ * durationSec / numEvents, h => pick(pmod(h, lit(1000000)) / 1000000.0))
  }

  /** Rows `0 until numEvents` as events. A row's key and the hash its type
    * is drawn from depend only on its id and `seed`; `time` maps the id
    * column to the event time and `etype` maps the type hash to the type.
    */
  private def events(spark: SparkSession, numEvents: Long, numKeys: Int, seed: Long)
                    (time: Column => Column, etype: Column => Column): Dataset[Event] = {
    import spark.implicits._
    val id = $"id"
    spark.range(numEvents).select(
      pmod(hash(id + lit(seed * 1000003L)), lit(numKeys)).cast(LongType).as("key"),
      time(id).cast(LongType).as("time"),
      etype(hash(id + lit(seed * 7919L + 1L))).cast(IntegerType).as("etype"),
    ).as[Event]
  }

  /** [[uniform]]'s rates: `eventsPerWindow` split evenly over the types
    * `T000..T{numTypes-1}` ([[Rates.perWindow]]).
    */
  def perWindowRates(eventsPerWindow: Long, numTypes: Int): Rates =
    Rates.perWindow(eventsPerWindow, (0 until numTypes).map(typeName))
}
