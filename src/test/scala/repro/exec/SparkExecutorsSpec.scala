package repro.exec

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Dataset}
import repro.{Oracle, OracleSql, SparkSpec}
import repro.core.{Candidate, Optimizer}
import repro.core.Model._
import repro.workload.{StreamGen, WorkloadGen}

/** Spark executor integration tests: all four executors (A-Seq, Sharon,
  * Flink-like, SPASS-like) checked against the DuckDB brute-force oracle
  * and against each other on the paper's traffic workload (§8.2 setting,
  * scaled to oracle-tractable streams).
  */
class SparkExecutorsSpec extends SparkSpec {
  import spark.implicits._

  // Scaled-down paper setting: same query shapes, smaller window.
  private val win      = WindowSpec(120, 30)
  private val workload = WorkloadGen.traffic(win)
  private val typeIds  = CompiledPlan.typeDictionary(workload)
  private val nTypes   = typeIds.size
  private val duration = 480L
  private val nEvents  = 240L

  // Events over the workload's alphabet, renamed to dictionary codes.
  private lazy val events =
    StreamGen.uniform(spark, nEvents, duration, nTypes, numKeys = 4, seed = 3)
      .cache()
  private lazy val eventsDf: DataFrame = events.toDF()
  private lazy val windowsDf: DataFrame =
    OracleSql.windowStarts(duration, win).toDF("ws")

  private lazy val realRates = Rates(typeIds.map { case (name, _) =>
    name -> nEvents.toDouble / duration / nTypes
  })
  private lazy val sharonPlan = {
    // Optimize over the workload's own alphabet.
    Optimizer.sharon(workload, realRates).plan
  }

  private def oracleCheck(df: DataFrame, w: Workload = workload): Unit =
    Oracle.assertEquivalent(
      df,
      OracleSql.workloadSql(w, typeIds),
      "events" -> eventsDf, "windows" -> windowsDf)

  private def asMap(df: DataFrame): Map[(Int, Long), Long] =
    df.collect().map(r => (r.getInt(0), r.getLong(1)) -> r.getLong(2)).toMap

  test("A-Seq executor matches the DuckDB oracle on the traffic workload") {
    val res = OnlineExecutors.runASeq(spark, events, workload, typeIds)
    assert(res.metrics.events > 0)
    oracleCheck(res.counts)
  }

  test("Sharon executor matches the DuckDB oracle under the optimal plan") {
    assert(sharonPlan.nonEmpty, "expected sharing opportunities in the traffic workload")
    val res = OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds)
    oracleCheck(res.counts)
  }

  test("Flink-like two-step executor matches the DuckDB oracle") {
    val res = TwoStepExecutors.runFlinkLike(eventsDf, workload, typeIds)
    assert(res.matchesConstructed > 0)
    oracleCheck(res.counts)
    // Non-shared: every constructed sequence is counted in exactly one window row.
    assert(res.matchesConstructed == asMap(res.counts).values.sum)
    assert(res.matchesConstructed == 328)
  }

  test("SPASS-like two-step executor matches the DuckDB oracle") {
    val res = TwoStepExecutors.runSpassLike(eventsDf, workload, sharonPlan, typeIds)
    oracleCheck(res.counts)
    assert(res.matchesConstructed == 446)
  }

  test("shared executors refuse an invalid plan: overlapping shared patterns in one query") {
    val q = workload.queries.map(q => q.id -> q).toMap
    val overlapping = Vector(
      Candidate(Pattern("OakSt", "MainSt"), Vector(q(1), q(2)), 1.0),
      Candidate(Pattern("MainSt", "StateSt"), Vector(q(1), q(5)), 1.0))
    assertThrows[IllegalArgumentException](
      TwoStepExecutors.runSpassLike(eventsDf, workload, overlapping, typeIds))
    assertThrows[IllegalArgumentException](
      OnlineExecutors.runSharon(spark, events, workload, overlapping, typeIds))
  }

  test("a duplicated query: every executor reports its rows under both ids, as the oracle does") {
    val dup  = Workload(workload.queries :+ workload.queries(1).copy(id = 8)) // q2 twice
    val plan = Optimizer.sharon(dup, realRates).plan
    assert(plan.exists(c => c.queryIds(2) && c.queryIds(8)))
    val streamed = StructuredSharon.run(spark,
      events.collect().toSeq.sortBy(e => (e.time, e.etype)),
      CompiledPlan.compile(dup, plan, typeIds), batchSeconds = 30)
    val runs = Seq(
      "Sharon" -> OnlineExecutors.runSharon(spark, events, dup, plan, typeIds).counts,
      "SPASS-like" -> TwoStepExecutors.runSpassLike(eventsDf, dup, plan, typeIds).counts,
      "Flink-like" -> TwoStepExecutors.runFlinkLike(eventsDf, dup, typeIds).counts,
      "streaming Sharon" -> streamed.emitted.filter(_.count != 0)
        .map(r => (r.queryId, r.windowStart, r.count)).toDF("query_id", "window_start", "cnt"))
    for ((name, counts) <- runs) withClue(name) {
      val rows = asMap(counts)
      def of(id: Int) = rows.collect { case ((`id`, ws), c) => ws -> c }
      assert(of(2).nonEmpty && of(8) == of(2))
      oracleCheck(counts, dup)
    }
  }

  test("all four executors agree with each other") {
    val aseq   = asMap(OnlineExecutors.runASeq(spark, events, workload, typeIds).counts)
    val sharon = asMap(OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds).counts)
    val flink  = asMap(TwoStepExecutors.runFlinkLike(eventsDf, workload, typeIds).counts)
    val spass  = asMap(TwoStepExecutors.runSpassLike(eventsDf, workload, sharonPlan, typeIds).counts)
    assert(sharon == aseq)
    assert(flink == aseq)
    assert(spass == aseq)
  }

  test("Sharon under the greedy plan also matches A-Seq (plan changes cost, not results)") {
    val greedyPlan = Optimizer.greedy(workload, realRates).plan
    val g   = asMap(OnlineExecutors.runSharon(spark, events, workload, greedyPlan, typeIds).counts)
    val a   = asMap(OnlineExecutors.runASeq(spark, events, workload, typeIds).counts)
    assert(g == a)
  }

  test("Sharon's counts come back materialized: collecting them starts no Spark job") {
    val res  = OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds)
    val sc   = spark.sparkContext
    val jobs = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(j: SparkListenerJobStart): Unit =
        jobs.add(String.valueOf(j.properties.getProperty("spark.jobGroup.id")))
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("counts", "collect the counts of a finished run")
      val rows = res.counts.collect()
      res.counts.unpersist()
      assert(res.counts.collect().sameElements(rows))
      // Listener events arrive in order: once the probe job is seen, any
      // job the collects started has been seen too.
      sc.setJobGroup("probe", "a job after the collects")
      sc.parallelize(Seq(1), 1).count()
      val deadline = System.nanoTime() + 30000000000L
      while (!jobs.contains("probe") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(jobs.contains("probe"))
      assert(!jobs.contains("counts"))
      assert(rows.nonEmpty)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("sharing reduces engine work on the traffic workload") {
    val aseq   = OnlineExecutors.runASeq(spark, events, workload, typeIds)
    val sharon = OnlineExecutors.runSharon(spark, events, workload, sharonPlan, typeIds)
    assert(sharon.metrics.countUpdates < aseq.metrics.countUpdates)
  }

  test("purchase workload: online executors match the oracle") {
    val pw  = WorkloadGen.purchases(WindowSpec(120, 30))
    val ids = CompiledPlan.typeDictionary(pw)
    val ev  = StreamGen.uniform(spark, 200, duration, ids.size, numKeys = 3, seed = 5).cache()
    val r   = Rates(ids.map { case (n, _) => n -> 200.0 / duration / ids.size })
    val plan = Optimizer.sharon(pw, r).plan
    val aseq   = OnlineExecutors.runASeq(spark, ev, pw, ids)
    val sharon = OnlineExecutors.runSharon(spark, ev, pw, plan, ids)
    Oracle.assertEquivalent(aseq.counts, OracleSql.workloadSql(pw, ids),
      "events" -> ev.toDF(), "windows" -> windowsDf)
    assert(asMap(aseq.counts) == asMap(sharon.counts))
  }

  // About 4 events per key and second: many STARTs and completions of one
  // segment share a timestamp.
  private lazy val denseW    = WorkloadGen.traffic(WindowSpec(8, 4))
  private lazy val denseEv   = StreamGen.uniform(spark, 800, 24, nTypes, numKeys = 8, seed = 13).cache()
  private lazy val densePlan =
    Optimizer.sharon(denseW, Rates(typeIds.map { case (n, _) => n -> 800.0 / 24 / nTypes })).plan

  /** Runs A-Seq and Sharon over `ev` on three shuffle partitions, so that
    * some task runs several of the 8 key groups back to back, and checks
    * both against the oracle.
    */
  private def checkDense(ev: Dataset[Event]): Unit = {
    val n = ev.count()
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", 3L)
    try for ((name, res) <- Seq(
        "A-Seq" -> OnlineExecutors.runASeq(spark, ev, denseW, typeIds),
        "Sharon" -> OnlineExecutors.runSharon(spark, ev, denseW, densePlan, typeIds))) withClue(name) {
      assert(res.metrics.events == n)
      Oracle.assertEquivalent(res.counts, OracleSql.workloadSql(denseW, typeIds),
        "events" -> ev.toDF(), "windows" -> OracleSql.windowStarts(24, denseW.window).toDF("ws"))
    } finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
  }

  test("dense ties over many keys: online executors match the oracle") {
    val rows = denseEv.collect()
    assert(rows.groupBy(e => (e.key, e.time, e.etype)).exists(_._2.length > 1))
    assert(densePlan.nonEmpty)
    checkDense(denseEv)
  }

  test("unsorted input over several partitions: online executors match the oracle") {
    // The dense-tie stream in reverse, so every partition runs backwards in time.
    val rows     = denseEv.collect().reverse.toSeq
    val reversed = spark.sparkContext.parallelize(rows, 5).toDS()
    assert(reversed.rdd.getNumPartitions == 5)
    assert(reversed.rdd.glom().collect().forall(p => p.length > 1 && p.head.time > p.last.time))
    checkDense(reversed)
    // Streaming sorts each micro-batch too.
    val streamed = StructuredSharon.run(spark, rows,
      CompiledPlan.compile(denseW, densePlan, typeIds), batchSeconds = 4).emitted
    Oracle.assertEquivalent(
      streamed.filter(_.count != 0).map(r => (r.queryId, r.windowStart, r.count))
        .toDF("query_id", "window_start", "cnt"),
      OracleSql.workloadSql(denseW, typeIds),
      "events" -> reversed.toDF(), "windows" -> OracleSql.windowStarts(24, denseW.window).toDF("ws"))
  }

  test("parametric workload at larger key counts: Sharon == A-Seq") {
    val w    = WorkloadGen.generate(numQueries = 8, patternLen = 4, numTypes = 10,
      numBackbones = 2, window = WindowSpec(60, 20), seed = 9)
    val ids  = StreamGen.typeIds(10)
    val ev   = StreamGen.uniform(spark, 500, 300, 10, numKeys = 16, seed = 11).cache()
    // 500 events over 300 s: 100 per 60 s window.
    val plan = Optimizer.sharon(w, StreamGen.perWindowRates(100, 10)).plan
    assert(plan.nonEmpty)
    val a = asMap(OnlineExecutors.runASeq(spark, ev, w, ids).counts)
    val s = asMap(OnlineExecutors.runSharon(spark, ev, w, plan, ids).counts)
    assert(a == s)
    assert(a.nonEmpty)
  }
}
