package repro.experiments

import org.apache.spark.sql.SparkSession
import Harness.ExperimentTable

/** The one entrypoint for the evaluation reproductions (paper §8): prints
  * the tables of one figure, e.g.
  * `sbt "runMain repro.experiments.Main fig15 10 20"`. Figure 15 runs
  * the optimizers only and starts no Spark session.
  */
object Main {

  val usage: String =
    """usage: repro.experiments.Main <figure> [args]
      |  fig13 [eventsPerWindow ...]       two-step vs online
      |  fig14 [events|queries|length|all] A-Seq vs Sharon sweeps (default all)
      |  fig15 [queries ...]               GO vs SO vs EO optimizers
      |  fig16 [clusters ...]              executor under greedy vs optimal plan
      |Numeric arguments are positive integers; none means the figure's defaults.""".stripMargin

  /** The tables `args` asks for, each computed when called, or the usage
    * message for an unknown figure or a malformed argument.
    */
  def parse(args: Seq[String]): Either[String, Seq[() => ExperimentTable]] = {
    lazy val spark = Harness.localSpark(s"sharon-${args.head}")
    val sizes = args.drop(1).map(_.toIntOption.filter(_ > 0))
    // The arguments' sweep, or the figure's own; None on a malformed one.
    def sweep(default: Seq[Int]): Option[Seq[Int]] =
      if (sizes.contains(None)) None
      else Some(if (sizes.isEmpty) default else sizes.flatten)
    val tables: Option[Seq[() => ExperimentTable]] = args.headOption match {
      case Some("fig13") =>
        sweep(Fig13TwoStepVsOnline.sweep).map(v =>
          Seq(() => Fig13TwoStepVsOnline.table(Fig13TwoStepVsOnline.run(spark, v))))
      case Some("fig14") =>
        val sweeps = Fig14OnlineApproaches.sweeps
        (args.drop(1) match {
          case Seq() | Seq("all") => Some(sweeps)
          case Seq(name)          => sweeps.find(_.name == name).map(Seq(_))
          case _                  => None
        }).map(_.map(s => () => Fig14OnlineApproaches.table(s, Fig14OnlineApproaches.run(spark, s))))
      case Some("fig15") =>
        sweep(Fig15OptimizerComparison.sweep).map(v =>
          Seq(() => Fig15OptimizerComparison.table(Fig15OptimizerComparison.run(v))))
      case Some("fig16") =>
        sweep(Fig16PlanQuality.sweep).map(v =>
          Seq(() => Fig16PlanQuality.table(Fig16PlanQuality.run(spark, v))))
      case _ => None
    }
    tables.toRight(usage)
  }

  def main(args: Array[String]): Unit = parse(args.toSeq) match {
    case Left(msg) =>
      System.err.println(msg)
      sys.exit(2)
    case Right(tables) =>
      tables.foreach(t => println(t().render))
      SparkSession.getDefaultSession.foreach(_.stop())
  }
}
