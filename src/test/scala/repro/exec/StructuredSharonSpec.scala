package repro.exec

import repro.SparkSpec
import repro.core.Optimizer
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** Structured-Streaming integration: the streaming DAG (MemoryStream →
  * micro-batches → shared stateful operator) must produce exactly the
  * batch executor's counts, and emit each window at (or before) the first
  * batch whose watermark passes the window end.
  */
class StructuredSharonSpec extends SparkSpec {

  private val win      = WindowSpec(60, 20)
  private val workload = WorkloadGen.traffic(win)
  private val typeIds  = CompiledPlan.typeDictionary(workload)
  private val duration = 300L
  private val nEvents  = 200L

  private lazy val events =
    StreamGen.uniform(spark, nEvents, duration, typeIds.size, numKeys = 3, seed = 21)
      .collect().toSeq.sortBy(e => (e.time, e.etype))

  private lazy val rates = Rates(typeIds.map { case (n, _) =>
    n -> nEvents.toDouble / duration / typeIds.size
  })

  private def batchCounts(cw: CompiledPlan.CompiledWorkload): Map[(Int, Long), Long] =
    EngineFixtures.runEngineMultiKey(cw, events)

  test("streaming Sharon equals batch Sharon (shared plan)") {
    val plan = Optimizer.sharon(workload, rates).plan
    val cw   = CompiledPlan.compile(workload, plan, typeIds)
    val res  = StructuredSharon.run(spark, events, cw, batchSeconds = 30)
    val streamed = res.emitted.map(r => (r.queryId, r.windowStart) -> r.count).toMap
      .filter(_._2 != 0)
    assert(streamed == batchCounts(cw))
    assert(res.batches > 1)
  }

  test("streaming A-Seq equals batch A-Seq (empty plan)") {
    val cw  = CompiledPlan.nonShared(workload, typeIds)
    val res = StructuredSharon.run(spark, events, cw, batchSeconds = 50)
    val streamed = res.emitted.map(r => (r.queryId, r.windowStart) -> r.count).toMap
      .filter(_._2 != 0)
    assert(streamed == batchCounts(cw))
  }

  test("each result window is emitted no earlier than its closing batch") {
    val cw  = CompiledPlan.nonShared(workload, typeIds)
    val res = StructuredSharon.run(spark, events, cw, batchSeconds = 30)
    res.emitted.zip(res.emissionBatch).foreach { case (r, b) =>
      // A window [ws, ws+len) can close only once a batch contains an
      // event at time >= ws + len - 1; batch b covers times < (b+1)*30.
      assert(r.windowStart + win.lengthSec <= (b + 1) * 30 + 30,
        s"window ${r.windowStart} emitted impossibly late or early (batch $b)")
    }
  }

  test("a second streaming run is deterministic") {
    val cw = CompiledPlan.nonShared(workload, typeIds)
    val a  = StructuredSharon.run(spark, events, cw, batchSeconds = 30)
    val b  = StructuredSharon.run(spark, events, cw, batchSeconds = 30)
    assert(a.emitted.map(r => (r.queryId, r.windowStart) -> r.count).toMap ==
      b.emitted.map(r => (r.queryId, r.windowStart) -> r.count).toMap)
  }

  test("overflow: a cross-key window sum above Long.MaxValue throws in both executors") {
    // Two keys, each holding n = 75 events of type Ti at time i: each key
    // counts 75^10 (fits a Long), their sum does not.
    val types = (0 until 10).map(i => s"T$i").toVector
    val ids   = types.zipWithIndex.toMap
    val cw    = CompiledPlan.nonShared(Workload(WindowSpec(100, 100), Seq(Pattern(types))), ids)
    val events = for (key <- 0L to 1L; t <- 0 until 10; _ <- 0 until 75) yield Event(key, t.toLong, t)
    assert(EngineFixtures.runEngine(cw, events.filter(_.key == 0))._1((0, 0L)) == 5631351470947265625L)
    val message = "count of query 0 in the window starting at 0 overflows a Long"
    val streamed = intercept[ArithmeticException](StructuredSharon.run(spark, events, cw, batchSeconds = 5))
    assert(streamed.getMessage == message)
    import spark.implicits._
    val batch = intercept[ArithmeticException](OnlineExecutors.run(spark, events.toDS(), cw))
    assert(batch.getMessage == message)
  }
}
