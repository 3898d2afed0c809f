package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Fig15OptimizerComparison

/** Figure 15 bench (pure compile-time; no Spark): GO vs SO vs EO.
  * Prints the reproduction table and asserts the paper's shape: GO is the
  * cheapest, SO completes everywhere with a score >= GO, EO blows up
  * (DNF) beyond small workloads.
  */
class Fig15Bench extends AnyFunSuite {

  private val sweep = Fig15OptimizerComparison.sweep
  private lazy val points = Fig15OptimizerComparison.run(sweep)

  test("Fig 15 table: optimizer latency/memory per query count") {
    println(Fig15OptimizerComparison.table(points).render)
    assert(points.size == sweep.size)
  }

  test("shape: GO is always the fastest optimizer") {
    points.foreach { pt =>
      val (goMs, soMs) = (pt.go.totalMillis, pt.so.totalMillis)
      assert(goMs <= soMs, s"GO ($goMs) should not exceed SO ($soMs) at ${pt.queries} queries")
    }
  }

  test("shape: SO plan score is never below GO's") {
    points.foreach { pt =>
      assert(pt.so.score + 1e-6 >= pt.go.score, s"at ${pt.queries} queries")
    }
  }

  test("shape: EO equals SO score where it completes, and DNFs at scale") {
    val completed = points.filter(_.eo.completed)
    completed.foreach { pt =>
      assert(math.abs(pt.so.score - pt.eo.score) < 1e-6,
        s"EO and SO disagree at ${pt.queries} queries")
    }
    val dnfs = points.size - completed.size
    info(s"EO completed on ${completed.size} points, DNF on $dnfs")
    assert(dnfs >= 1, "EO should fail beyond small workloads (paper: >20 queries)")
  }

  test("shape: EO latency dwarfs GO where both complete") {
    points.filter(_.eo.completed).foreach { pt =>
      assert(pt.eo.totalMillis >= pt.go.totalMillis, s"at ${pt.queries} queries")
    }
  }
}
