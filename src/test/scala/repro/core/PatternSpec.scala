package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._

/** Pattern / window model unit tests (Definitions 1, 2, 4, 6). */
class PatternSpec extends AnyFunSuite {
  private val abc  = Pattern("A", "B", "C")
  private val abcd = Pattern("A", "B", "C", "D")

  test("length and start type") {
    assert(abc.length == 3)
    assert(abc.startType == "A")
  }

  test("single-type pattern is allowed by the model (length 1)") {
    assert(Pattern("A").length == 1)
  }

  test("empty pattern is rejected") {
    intercept[IllegalArgumentException](Pattern(Vector.empty))
  }

  test("subPatterns enumerates all contiguous sub-patterns of length > 1") {
    assert(abc.subPatterns.toSet == Set(
      Pattern("A", "B"), Pattern("B", "C"), Pattern("A", "B", "C")))
  }

  test("subPatterns of a length-4 pattern has C(4,2)+... = 6 entries") {
    assert(abcd.subPatterns.size == 6)
  }

  test("subPatterns of a length-2 pattern is itself") {
    assert(Pattern("A", "B").subPatterns == Seq(Pattern("A", "B")))
  }

  test("indexOf finds contiguous occurrences") {
    assert(abcd.indexOf(Pattern("B", "C")).contains(1))
    assert(abcd.indexOf(abcd).contains(0))
    assert(abcd.indexOf(Pattern("A", "C")).isEmpty) // non-contiguous
    assert(abcd.indexOf(Pattern("X")).isEmpty)
  }

  test("prefixOf / suffixOf (Definition 4)") {
    assert(abcd.prefixOf(Pattern("B", "C")) == Vector("A"))
    assert(abcd.suffixOf(Pattern("B", "C")) == Vector("D"))
    assert(abcd.prefixOf(Pattern("A", "B")) == Vector.empty)
    assert(abcd.suffixOf(Pattern("C", "D")) == Vector.empty)
  }

  test("prefixOf rejects non-occurring pattern") {
    intercept[IllegalArgumentException](abc.prefixOf(Pattern("X", "Y")))
  }

  test("occurrencesOverlap: overlapping, disjoint, and containment cases") {
    val q4 = Pattern("ParkAve", "OakSt", "MainSt", "WestSt")
    // p2=(ParkAve,OakSt) pos 0-1, p4=(MainSt,WestSt) pos 2-3: disjoint.
    assert(!q4.occurrencesOverlap(Pattern("ParkAve", "OakSt"), Pattern("MainSt", "WestSt")))
    // p2 pos 0-1, p1=(OakSt,MainSt) pos 1-2: overlap at index 1 (Example 4).
    assert(q4.occurrencesOverlap(Pattern("ParkAve", "OakSt"), Pattern("OakSt", "MainSt")))
    // containment: p3 covers p2's span.
    assert(q4.occurrencesOverlap(Pattern("ParkAve", "OakSt", "MainSt"), Pattern("ParkAve", "OakSt")))
    // one side absent -> no overlap.
    assert(!q4.occurrencesOverlap(Pattern("ParkAve", "OakSt"), Pattern("X", "Y")))
  }

  test("query rejects repeated event types (assumption 3)") {
    intercept[IllegalArgumentException](
      Query(0, Pattern("A", "B", "A"), WindowSpec(10, 1)))
  }

  test("windowsOf at t=0 is the single window starting at 0") {
    assert(WindowSpec(10, 2).windowsOf(0) == Seq(0L))
  }

  test("windowsOf mid-stream covers length/slide windows") {
    val w = WindowSpec(10, 2)
    assert(w.windowsOf(20) == Seq(12L, 14L, 16L, 18L, 20L))
  }

  test("windowsOf clamps at the timeline origin (no negative windows)") {
    val w = WindowSpec(10, 2)
    assert(w.windowsOf(3) == Seq(0L, 2L))
  }

  test("windowsOf handles non-divisible boundaries") {
    val w = WindowSpec(10, 3)
    // windows [0,10) [3,13) [6,16) [9,19): t=9 is in all four; t=10 not in [0,10)
    assert(w.windowsOf(9) == Seq(0L, 3L, 6L, 9L))
    assert(w.windowsOf(10) == Seq(3L, 6L, 9L))
  }

  test("lastWindowEnd marks expiration (Fig 6b: a1 expired at time 5)") {
    // window length 4 slide 1: a1 at time 1 -> last window [1,5) -> end 5
    assert(WindowSpec(4, 1).lastWindowEnd(1) == 5L)
  }

  test("tumbling window (slide == length)") {
    val w = WindowSpec(10, 10)
    assert(w.windowsOf(9) == Seq(0L))
    assert(w.windowsOf(10) == Seq(10L))
  }

  test("windowsOf never returns a window excluding its argument") {
    val w = WindowSpec(600, 60)
    for (t <- Seq(0L, 59L, 60L, 599L, 600L, 601L, 3599L))
      assert(w.windowsOf(t).forall(ws => ws <= t && t < ws + w.lengthSec))
  }

  test("rates: pattern rate is the sum of type rates (Eq 1)") {
    val r = Rates(Map("A" -> 1.5, "B" -> 2.5))
    assert(r.ofPattern(Seq("A", "B")) == 4.0)
    assert(r("C") == 0.0)
    assert(r.ofPattern(Seq("A", "C")) == 1.5)
  }

  test("workload requires a single window spec (assumption 2)") {
    intercept[IllegalArgumentException](Workload(Vector(
      Query(0, Pattern("A", "B"), WindowSpec(10, 1)),
      Query(1, Pattern("B", "C"), WindowSpec(20, 1)))))
  }
}
