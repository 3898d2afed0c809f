package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core._
import repro.exec._
import repro.exec.CompiledPlan.CompiledWorkload
import Reference.ResultKey

/** The layered Sharon benchmark: one workload, one seed, one process.
  *
  * `--trace 0` measures the end-to-end metrics with tracing off;
  * `--trace 1` is the separate traced run that times each layer through
  * its public functions and records spans. Every executor run is checked
  * against the exact reference, and the deterministic meters must repeat
  * within the run and across runs of one seed; the process exits non-zero
  * otherwise.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        out: Path, state: Path)

  private val usage =
    "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--state <dir>]"

  private def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, usage)
    val kv = argv.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), usage); k.drop(2) -> v }.toMap
    val out = Paths.get(kv.getOrElse("out", "perfbench/out"))
    Args(kv("workload"), kv("seed").toLong, kv("seconds").toInt,
      kv("trace") match { case "0" => false; case "1" => true },
      out, kv.get("state").map(Paths.get(_)).getOrElse(out.resolve("fingerprints")))
  }

  def main(argv: Array[String]): Unit = {
    val args = try parse(argv) catch {
      case e: Exception => System.err.println(s"$usage (${e.getMessage})"); sys.exit(2)
    }
    val spec = Workloads.all.getOrElse(args.workload, {
      System.err.println(s"unknown workload ${args.workload}; one of ${Workloads.all.keys.mkString(", ")}")
      sys.exit(2)
    })
    Reference.overflowSelfTest().foreach { msg =>
      System.err.println(s"checker self-test failed: $msg"); sys.exit(1)
    }
    // At most two executor threads, and a core free for the JIT compiler
    // and GC. On a shared host, every busy vCPU is exposed to steal; two
    // threads ran q20-len10 nearly as fast as three, and steadier (see
    // perfbench/README.md).
    val k     = math.max(1, math.min(2, Runtime.getRuntime.availableProcessors - 1))
    val bench = new Bench(spec, args, k)
    val code  = try bench.run() finally bench.close()
    sys.exit(code)
  }
}

object Bench {
  final case class Setup(result: Optimizer.Result, cw: CompiledWorkload,
                         seconds: Double, compileMs: Double)

  final case class Exec(ms: Double, metrics: EngineMetrics, rows: Vector[(ResultKey, Long)],
                        batchMs: Vector[Double], progress: Vector[StreamingQueryProgress],
                        batches: Long)
}

final class Bench(spec: Workloads.Spec, args: Main.Args, k: Int) {
  import Bench._

  private val runId   = s"${spec.name}-seed${args.seed}-${System.currentTimeMillis}"
  private val tracer  = new Tracer(runId, args.trace)
  private val untraced = new Tracer(runId, enabled = false)
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val pinned  = mutable.LinkedHashMap.empty[String, String]
  private val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0L
  private var failed    = 0L
  private var resultsTotal = 0L
  private val batchStats = new BatchStats
  private val tmpDir = Paths.get(System.getProperty("java.io.tmpdir"))

  // Started after the set-ups, which do not need Spark.
  private var started = false
  private lazy val spark: SparkSession = {
    started = true
    val session = SparkSession.builder
      .master(s"local[$k]")
      .appName("sharon-perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", tmpDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", tmpDir.resolve("warehouse").toString)
      .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
      .config("spark.sql.ui.retainedExecutions", "10")
      .config("spark.ui.retainedJobs", "10")
      .config("spark.ui.retainedStages", "10")
      .config("spark.ui.retainedTasks", "1000")
      .config("spark.sql.streaming.ui.retainedQueries", "2")
      .config("spark.sql.streaming.pollingDelay", "1ms")
      .config("spark.sql.streaming.checkpointFileManagerClass", classOf[LocalCheckpointFiles].getName)
      .getOrCreate()
    session.streams.addListener(batchStats)
    session
  }

  def close(): Unit = if (started) spark.stop()

  private def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
  private val createdNs = System.nanoTime()
  private def log(msg: String): Unit =
    System.err.println(f"[perfbench ${spec.name} ${(System.nanoTime() - createdNs) / 1e9}%.1fs] $msg")

  /** Pins a deterministic value: it must repeat exactly within this run,
    * and across runs of this seed (see [[compareWithEarlierRuns]]).
    */
  private def pin(name: String, v: Any): Unit = pinned.get(name) match {
    case Some(prev) if prev != v.toString =>
      failures += s"determinism: $name was $prev, now $v"
    case _ => pinned(name) = v.toString
  }

  // ---- inputs ---------------------------------------------------------

  private lazy val (eventsDs, events): (Dataset[Event], Vector[Event]) =
    tracer.span("workload.generate") {
      val ds = spec.events(spark, args.seed)
      if (!spec.streaming) ds.cache()
      (ds, ds.collect().sortBy(e => (e.time, e.etype)).toVector)
    }

  private lazy val reference: Map[ResultKey, BigInt] =
    tracer.span("check.reference")(Reference.counts(events, spec.workload, spec.typeIds))

  private def verify(label: String, rows: Iterable[(ResultKey, Long)]): Unit = {
    val c = Reference.check(reference, rows)
    attempted += c.total
    failed += c.wrong
    resultsTotal = c.total
    pin("results_total", c.total)
    if (c.wrong > 0)
      failures += s"$label: ${c.wrong} of ${c.total} results wrong, e.g. ${c.examples.mkString("; ")}"
  }

  // ---- set-up: optimizer + compile ------------------------------------

  private def setup(t: Tracer, of: Workloads.Spec = spec): Setup = t.span("setup") {
    val t0 = System.nanoTime()
    val r = t.span("core.optimize") {
      val start = t.nowMs
      val r = Optimizer.sharon(of.workload, of.rates,
        maxOptions = Workloads.maxOptions, maxLevelWidth = Workloads.maxLevelWidth)
      // Phases run back to back inside the optimizer call.
      r.phases.foldLeft(start) { (at, p) => t.record(s"core.${p.name}", at, at + p.millis); at + p.millis }
      r
    }
    val t1 = System.nanoTime()
    val cw = t.span("compile")(CompiledPlan.compile(of.workload, r.plan, of.typeIds))
    val t2 = System.nanoTime()
    if (of == spec) pin("plan_score", r.score)
    Setup(r, cw, (t2 - t0) / 1e9, (t2 - t1) / 1e6)
  }

  /** Set-ups of this workload for at least 2 s, after the JIT warmed up
    * on one second of set-ups of the q20-len10 query set and two seconds
    * of this workload's own.
    */
  private def setups(minCalls: Int): Vector[Setup] = {
    repeat(minCalls = 1, minSeconds = 1.0)(setup(untraced, Workloads.all("q20-len10")))
    repeat(minCalls = 1, minSeconds = 2.0)(setup(untraced))
    val out = repeat(minCalls, minSeconds = 2.0)(setup(untraced))
    log(f"${out.size} set-ups, median ${Stats.median(out.map(_.seconds))}%.4f s")
    out
  }

  /** Repeats `body` until it ran at least `minCalls` times and `minSeconds`. */
  private def repeat[A](minCalls: Int, minSeconds: Double)(body: => A): Vector[A] = {
    val out = Vector.newBuilder[A]
    val t0  = System.nanoTime()
    var n   = 0
    while (n < minCalls || (System.nanoTime() - t0) / 1e9 < minSeconds) { out += body; n += 1 }
    out.result()
  }

  // ---- executor: Spark batch or Structured Streaming ------------------

  private def execute(s: Setup): Exec =
    if (spec.streaming) stream(s, events) else batch(s, eventsDs)

  private def stream(s: Setup, input: Vector[Event]): Exec = {
    val t0 = System.nanoTime()
    val r  = StructuredSharon.run(spark, input, s.cw, Workloads.window.slideSec)
    val ms = (System.nanoTime() - t0) / 1e6
    val progress = batchStats.drain(spark.sparkContext)
    Exec(ms, r.metrics, Reference.toKeyed(r.emitted).toVector,
      progress.map(_.durationMs.get("triggerExecution").toDouble), progress, r.batches)
  }

  private def batch(s: Setup, input: Dataset[Event]): Exec = {
    val t0 = System.nanoTime()
    val r  = OnlineExecutors.runSharon(spark, input, spec.workload, s.result.plan, spec.typeIds)
    val ms = (System.nanoTime() - t0) / 1e6
    val rows = r.counts.collect().toVector.map(row => (row.getInt(0), row.getLong(1)) -> row.getLong(2))
    r.counts.unpersist()
    Exec(ms, r.metrics, rows, Vector(ms), Vector.empty, 1L)
  }

  private def checked(label: String, ex: Exec): Exec = {
    verify(label, ex.rows)
    pin("work_units", ex.metrics.workUnits)
    pin("peak_state_units", ex.metrics.peakStateUnits)
    ex
  }

  private lazy val keyGroups = Kernel.keyGroups(events)

  /** JIT and Spark's lazy set-up settle before timing. The engine code
    * warms up fastest without Spark: `k` threads run the kernel over the
    * key groups for 2 s. Then full, checked runs warm up the executor path
    * for at least 12 s: a warm process still speeds up over its first two
    * runs.
    */
  private def warmUp(s: Setup): Unit = {
    log(s"${events.size} events, ${reference.size} reference results")
    val deadline = System.nanoTime() + 2000000000L
    val threads = (0 until k).map { t =>
      new Thread(() => {
        var i = t
        while (System.nanoTime() < deadline) {
          new KeyGroupEngine(s.cw, new EngineMetrics).run(keyGroups(i % keyGroups.size).iterator)
            .foreach(_ => ())
          i += k
        }
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    val w = repeat(minCalls = 1, minSeconds = 12.0)(checked("warm-up", execute(s)))
    log(s"warm-up runs ${w.map(r => math.round(r.ms)).mkString(" ")} ms")
  }

  // ---- the two modes --------------------------------------------------

  private def endToEnd(): Unit = {
    val measured = setups(minCalls = 2)
    put("setup_s", Stats.median(measured.map(_.seconds)), "s")
    val s = measured.last
    warmUp(s)
    val runs = repeat(minCalls = 3, minSeconds = args.seconds) {
      checked("run", execute(s))
    }
    val latencies = runs.flatMap(_.batchMs)
    if (spec.streaming && latencies.size < 100)
      failures += s"only ${latencies.size} micro-batches; p90 needs 100"
    put("throughput_eps", Stats.median(runs.map(r => events.size / (r.ms / 1000))), "1/s")
    put("emit_p50_ms", Stats.quantile(latencies, 0.5), "ms")
    put("emit_p90_ms", Stats.quantile(latencies, 0.9), "ms")
    put("peak_state_units", runs.head.metrics.peakStateUnits.toDouble, "units")
    log(s"${runs.size} runs (ms: ${runs.map(r => math.round(r.ms)).mkString(" ")}), " +
      s"${latencies.size} emission samples")
    val progress = runs.flatMap(_.progress)
    if (progress.nonEmpty) {
      val phases = progress.head.durationMs.keySet.asScala.toSeq.sorted
      log("micro-batch p50 ms: " + phases.map(p =>
        f"$p ${Stats.median(progress.map(_.durationMs.get(p).toDouble))}%.0f").mkString(", "))
    }
  }

  private def layered(): Unit = {
    // Set-up, untraced then traced, and the optimizer stages one by one.
    val plain = setups(minCalls = 1)
    val s     = setup(tracer)
    val phase = s.result.phases.map(p => p.name -> p.millis).toMap
    put("core.construct_ms", phase("graph construction"), "ms")
    put("core.expand_ms", phase("graph expansion"), "ms")
    put("core.reduce_ms", phase("graph reduction"), "ms")
    put("core.find_ms", phase("plan finder"), "ms")
    put("core.completed", if (s.result.completed) 1 else 0, "bool")
    put("core.plan_score", s.result.score, "units")
    put("core.mem_units", s.result.peakMemUnits.toDouble, "units")
    tracer.span("core.stages") {
      val sharable = tracer.span("core.detect")(SharablePatterns.detect(spec.workload))
      val graph    = tracer.span("core.construct")(SharonGraph.construct(spec.rates, sharable))
      val weigh: Expansion.Weigh = (p, qs) => CostModel.bValue(spec.rates, p, qs)
      val expanded = tracer.span("core.expand")(Expansion.expandGraph(graph, weigh, Workloads.maxOptions))
      val reduced  = tracer.span("core.reduce")(Reduction.reduce(expanded))
      put("core.candidates", graph.size, "count")
      put("core.options", expanded.size, "count")
      put("core.edges", expanded.edgeCount, "count")
      put("core.pruned", reduced.prunedConflictRidden(expanded).size, "count")
      put("core.conflict_free", reduced.conflictFree.size, "count")
    }
    put("compile.ms", s.compileMs, "ms")
    put("compile.segments", s.cw.distinctSegments, "count")
    put("compile.shared_segments",
      s.cw.queries.flatMap(_.segments.filter(_.shared).map(_.shareKey)).distinct.size, "count")

    // Executor, untraced then traced (with the Spark listener and spans).
    warmUp(s)
    val plainRun = checked("run", execute(s))
    val tasks    = new TaskStats
    if (!spec.streaming) spark.sparkContext.addSparkListener(tasks)
    val run = tracer.span("executor") {
      val r = checked("traced run", execute(s))
      r.progress.foreach { p =>
        val start = tracer.fromWallMs(java.time.Instant.parse(p.timestamp).toEpochMilli)
        tracer.record("stream.micro_batch", start, start + p.durationMs.get("triggerExecution").toDouble)
      }
      r
    }
    if (!spec.streaming) {
      org.apache.spark.ListenerBusDrain(spark.sparkContext)
      spark.sparkContext.removeSparkListener(tasks)
    }

    // The kernel without Spark, shared plan and non-shared (A-Seq).
    val kern = tracer.span("kernel.sharon")(Kernel.run(keyGroups, s.cw, tracer, "kernel.sharon"))
    val aseq = tracer.span("kernel.aseq")(Kernel.run(keyGroups,
      CompiledPlan.nonShared(spec.workload, spec.typeIds), tracer, "kernel.aseq"))
    pin("work_units", kern.metrics.workUnits)
    val km = kern.metrics
    put("kernel.ms", kern.ms, "ms")
    put("kernel.ns_per_event", kern.ms * 1e6 / km.events, "ns/event")
    put("kernel.ns_per_work_unit", kern.ms * 1e6 / km.workUnits, "ns/unit")
    put("kernel.count_updates", km.countUpdates.toDouble, "count")
    put("kernel.comb_mults", km.combMults.toDouble, "count")
    put("kernel.work_units", km.workUnits.toDouble, "count")
    put("kernel.peak_state_units", km.peakStateUnits.toDouble, "units")
    put("kernel.alloc_bytes_per_event", kern.allocBytes.toDouble / km.events, "B/event")
    put("kernel.aseq_ms", aseq.ms, "ms")
    put("kernel.aseq_work_units", aseq.metrics.workUnits.toDouble, "count")
    put("kernel.work_ratio", aseq.metrics.workUnits.toDouble / km.workUnits, "ratio")
    put("kernel.wall_ratio", aseq.ms / kern.ms, "ratio")

    // Layers off this workload's path read 0.
    val batch = !spec.streaming
    put("spark.run_ms", if (batch) run.ms else 0, "ms")
    put("spark.overhead_ms", if (batch) run.ms - kern.ms / k else 0, "ms")
    put("spark.shuffle_bytes", if (batch) tasks.shuffleBytes.toDouble else 0, "B")
    put("spark.task_skew", if (batch) tasks.groupedStageSkew else 0, "ratio")
    put("spark.gc_ms", if (batch) tasks.gcMs.toDouble else 0, "ms")
    def dur(p: StreamingQueryProgress, key: String): Double = p.durationMs.get(key).toDouble
    def p50(f: StreamingQueryProgress => Double): Double =
      if (run.progress.isEmpty) 0 else Stats.median(run.progress.map(f))
    put("stream.add_batch_ms_p50", p50(dur(_, "addBatch")), "ms")
    put("stream.overhead_ms_p50", p50(p => dur(p, "triggerExecution") - dur(p, "addBatch")), "ms")
    put("stream.batches", if (spec.streaming) run.batches.toDouble else 0, "count")
    put("stream.emitted", if (spec.streaming) run.rows.size.toDouble else 0, "count")

    val predicted = s.result.score
    val measured  = (aseq.metrics.workUnits - km.workUnits).toDouble
    put("model.predicted_benefit", predicted, "units")
    put("model.measured_benefit", measured, "count")
    put("model.calibration", if (predicted == 0) 0 else measured / predicted, "ratio")

    put("check.results_total", resultsTotal.toDouble, "count")
    put("check.results_wrong", failed.toDouble, "count")
    put("check.error_rate", failed.toDouble / attempted, "ratio")
    put("trace.overhead_setup_pct", (s.seconds / Stats.median(plain.map(_.seconds)) - 1) * 100, "%")
    put("trace.overhead_run_pct", (run.ms / plainRun.ms - 1) * 100, "%")
    put("trace.spans", tracer.size.toDouble, "count")
  }

  // ---- fingerprints across runs of one seed ---------------------------

  private def compareWithEarlierRuns(): Unit = {
    val file = args.state.resolve(s"${spec.name}-seed${args.seed}.txt")
    val earlier: Map[String, String] =
      if (Files.exists(file))
        new String(Files.readAllBytes(file), StandardCharsets.UTF_8).linesIterator
          .map(_.split("=", 2)).collect { case Array(key, v) => key -> v }.toMap
      else Map.empty
    for ((key, v) <- pinned; prev <- earlier.get(key) if prev != v)
      failures += s"determinism: $key was $prev in an earlier run of this seed, now $v"
    val merged = earlier ++ pinned
    Files.createDirectories(args.state)
    Files.write(file, merged.map { case (key, v) => s"$key=$v" }.mkString("", "\n", "\n")
      .getBytes(StandardCharsets.UTF_8))
  }

  def run(): Int = {
    if (args.trace) layered() else endToEnd()
    compareWithEarlierRuns()
    val host = Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors, "k" -> k,
      "heap_bytes" -> Runtime.getRuntime.maxMemory, "spark" -> spark.version,
      "java" -> System.getProperty("java.version"), "seed" -> args.seed,
      "workload" -> spec.name, "trace" -> args.trace, "events" -> events.size,
      "queries" -> spec.workload.size, "run" -> runId)
    val ok = failures.isEmpty
    metrics.foreach { case (n, (v, u)) => println(f"# $n%-28s $v%.6g $u") }
    println(s"# error_rate ${failed.toDouble / attempted} ($failed of $attempted results wrong)")
    println("# host " + Json.obj(host: _*))
    failures.foreach(f => log(s"FAILED $f"))
    val metricJson = Json.Raw(metrics.map { case (n, (v, u)) =>
      Json.value(n) + ": " + Json.obj("value" -> v, "unit" -> u) }.mkString("{", ", ", "}"))
    val record = Json.obj("correct" -> ok, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metricJson)
    Files.createDirectories(args.out)
    Files.write(args.out.resolve(s"${spec.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json"),
      (Json.obj("host" -> Json.Raw(Json.obj(host: _*)), "pinned" -> pinned.toMap,
        "failures" -> failures.toSeq, "result" -> Json.Raw(record)) + "\n")
        .getBytes(StandardCharsets.UTF_8))
    if (args.trace) tracer.write(args.out.resolve(s"${spec.name}-seed${args.seed}.spans.json"))
    println(record)
    if (ok) 0 else 1
  }
}
