package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import Harness._

/** Experiment harness plumbing tests. */
class HarnessSpec extends AnyFunSuite {

  test("table renders aligned columns with title and separator") {
    val t = ExperimentTable("demo", Seq("a", "bbb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.linesIterator.toVector
    assert(lines.head == "== demo ==")
    assert(lines(1).contains("| a   | bbb |"))
    assert(lines(2).startsWith("|-"))
    assert(lines.size == 5)
  }

  test("ms formats one decimal") {
    assert(ms(12.345) == "12.3")
  }

  test("ratio guards division by zero") {
    assert(ratio(1.0, 0.0) == "-")
    assert(ratio(3.0, 2.0) == "1.50")
  }

  test("Main's parser returns usage for an unknown figure or a malformed argument") {
    // parse only builds thunks, so no figure runs and no Spark session starts.
    for (bad <- Seq(Seq(), Seq("fig12"), Seq("fig13", "500", "x"), Seq("fig15", "1.5"),
                    Seq("fig16", "-3"), Seq("fig14", "widths"), Seq("fig14", "events", "all")))
      assert(Main.parse(bad) == Left(Main.usage), bad)
    for (good <- Seq(Seq("fig13"), Seq("fig14"), Seq("fig14", "queries"), Seq("fig15", "10", "20"),
                     Seq("fig16", "3")))
      assert(Main.parse(good).isRight, good)
    assert(Main.parse(Seq("fig14", "all")).map(_.size) == Right(3))
  }
}
