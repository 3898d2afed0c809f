package repro.experiments

import org.apache.spark.sql.{Dataset, SparkSession}

/** Shared plumbing for the four evaluation reproductions (paper §8,
  * Figs 13–16). Each experiment runs its sweep into typed points, which
  * render as an [[ExperimentTable]] of the rows the paper plots, recorded
  * next to the paper's numbers in EXPERIMENTS.md.
  */
object Harness {

  final case class ExperimentTable(title: String, header: Seq[String],
                                   rows: Seq[Seq[String]]) {
    def render: String = {
      val all    = header +: rows
      val widths = header.indices.map(i => all.map(_(i).length).max)
      def line(cells: Seq[String]): String =
        cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
    }
  }

  def ms(x: Double): String = f"$x%.1f"
  def ratio(a: Double, b: Double): String = if (b == 0) "-" else f"${a / b}%.2f"

  /** Throughput as §8.1 counts it: events × queries per second. */
  def throughput(events: Long, queries: Int, millis: Double): String =
    if (millis <= 0) "-" else f"${events * queries / (millis / 1000)}%.0f"

  /** "SO complete" cell: "no" marks a fallback plan, taken when the plan
    * finder's anytime cutoff fired (`Optimizer.Result.completed`).
    */
  def yesNo(b: Boolean): String = if (b) "yes" else "no"

  /** Runs `f` on `events` cached and materialized, so no timed run pays
    * for generating the stream; then drops the cache.
    */
  def withCached[T, A](events: Dataset[T])(f: Dataset[T] => A): A = {
    events.cache().count()
    try f(events) finally events.unpersist()
  }

  /** The local session of [[Main]], and of every test and bench run
    * (through the shared SparkSpec session).
    */
  def localSpark(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
