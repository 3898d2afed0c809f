package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

/** Runs one small Figure 15 point end to end (optimizers only, no Spark). */
class Fig15OptimizerComparisonSpec extends AnyFunSuite {

  test("a 6-query point: SO scores at least GO, EO completes with SO's score, one table row") {
    val points = Fig15OptimizerComparison.run(Seq(6))
    val pt     = points.head
    assert(points.size == 1 && pt.queries == 6)
    assert(pt.so.score >= pt.go.score)
    assert(pt.eo.completed)
    assert(math.abs(pt.eo.score - pt.so.score) < 1e-6)

    val t = Fig15OptimizerComparison.table(points)
    assert(t.header == Seq("queries", "GO ms", "SO ms", "EO ms", "GO mem", "SO mem", "EO mem",
      "GO score", "SO score", "EO score", "SO phases (ms)"))
    assert(t.rows.size == 1 && t.rows.head.head == "6")
    assert(t.render.linesIterator.size == 4) // title, header, separator, one row
  }
}
