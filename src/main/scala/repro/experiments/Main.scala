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
    // A figure's default Params without sizes; None on a malformed one.
    def sized[P](default: P)(withSizes: Seq[Int] => P): Option[P] =
      if (sizes.contains(None)) None
      else Some(if (sizes.isEmpty) default else withSizes(sizes.flatten))
    val fig14 = Seq(
      "events"  -> (() => Fig14OnlineApproaches.runEventsSweep(spark)),
      "queries" -> (() => Fig14OnlineApproaches.runQueriesSweep(spark)),
      "length"  -> (() => Fig14OnlineApproaches.runLengthSweep(spark)))
    val tables: Option[Seq[() => ExperimentTable]] = args.headOption match {
      case Some("fig13") =>
        sized(Fig13TwoStepVsOnline.Params())(v => Fig13TwoStepVsOnline.Params(eventsPerWindow = v))
          .map(p => Seq(() => Fig13TwoStepVsOnline.table(Fig13TwoStepVsOnline.run(spark, p))))
      case Some("fig14") => args.drop(1) match {
        case Seq() | Seq("all") => Some(fig14.map(_._2))
        case Seq(which)         => fig14.toMap.get(which).map(Seq(_))
        case _                  => None
      }
      case Some("fig15") =>
        sized(Fig15OptimizerComparison.Params())(v => Fig15OptimizerComparison.Params(numQueries = v))
          .map(p => Seq(() => Fig15OptimizerComparison.run(p)))
      case Some("fig16") =>
        sized(Fig16PlanQuality.Params())(v => Fig16PlanQuality.Params(numClusters = v))
          .map(p => Seq(() => Fig16PlanQuality.run(spark, p)))
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
