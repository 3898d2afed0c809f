package repro.exec

import org.scalatest.funsuite.AnyFunSuite

/** EngineMetrics semantics: counters, state tracking, merge. */
class MetricsSpec extends AnyFunSuite {

  test("peak tracks the high-water mark of live state") {
    val m = new EngineMetrics
    m.addState(5); m.addState(3); m.removeState(6); m.addState(1)
    assert(m.curStateUnits == 3)
    assert(m.peakStateUnits == 8)
  }

  test("workUnits is countUpdates + combMults") {
    val m = new EngineMetrics
    m.countUpdates = 7; m.combMults = 5
    assert(m.workUnits == 12)
  }

  test("merge sums counters and adds peaks (concurrent key groups)") {
    val a = new EngineMetrics
    a.events = 10; a.countUpdates = 100; a.addState(4)
    val b = new EngineMetrics
    b.events = 5; b.combMults = 50; b.addState(9)
    a.merge(b)
    assert(a.events == 15)
    assert(a.countUpdates == 100 && a.combMults == 50)
    assert(a.peakStateUnits == 13)
  }
}
