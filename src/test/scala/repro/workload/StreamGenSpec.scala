package repro.workload

import repro.SparkSpec

/** Stream generator tests: schema bounds, determinism, rate shape. */
class StreamGenSpec extends SparkSpec {

  test("uniform: keys, types, times respect their bounds") {
    val ev = StreamGen.uniform(spark, 1000, 500, numTypes = 7, numKeys = 11, seed = 1).collect()
    assert(ev.length == 1000)
    assert(ev.forall(e => e.key >= 0 && e.key < 11))
    assert(ev.forall(e => e.etype >= 0 && e.etype < 7))
    assert(ev.forall(e => e.time >= 0 && e.time < 500))
  }

  test("uniform: deterministic in the seed") {
    val a = StreamGen.uniform(spark, 500, 100, 5, 5, seed = 9).collect().toSeq
    val b = StreamGen.uniform(spark, 500, 100, 5, 5, seed = 9).collect().toSeq
    assert(a == b)
  }

  test("uniform: different seeds differ") {
    val a = StreamGen.uniform(spark, 500, 100, 5, 5, seed = 1).collect().toSeq
    val b = StreamGen.uniform(spark, 500, 100, 5, 5, seed = 2).collect().toSeq
    assert(a != b)
  }

  test("uniform: times are non-decreasing in generation order (constant rate)") {
    val t = StreamGen.uniform(spark, 300, 100, 5, 5).collect().map(_.time)
    assert(t.zip(t.tail).forall { case (x, y) => x <= y })
  }

  test("uniform: every type is roughly equally frequent") {
    val ev = StreamGen.uniform(spark, 10000, 1000, numTypes = 4, numKeys = 5).collect()
    val byType = ev.groupBy(_.etype).view.mapValues(_.length)
    assert(byType.size == 4)
    byType.values.foreach(c => assert(math.abs(c - 2500) < 500))
  }

  test("linearRoadLike: event rate ramps up over the run") {
    val ev = StreamGen.linearRoadLike(spark, 10000, 1000, 5, 5).collect()
    val firstHalf = ev.count(_.time < 500)
    val secondHalf = ev.length - firstHalf
    assert(secondHalf > firstHalf * 2) // density grows with time
  }

  test("perWindowRates matches the empirical per-type count in one window") {
    // 10000 events over 1000 s: 1000 per 100 s window.
    val r  = StreamGen.perWindowRates(1000, 4)
    assert(r(StreamGen.typeName(0)) == 250.0)
    val ev = StreamGen.uniform(spark, 10000, 1000, 4, 5).collect()
    val measured = ev.count(e => e.etype == 0 && e.time < 100)
    assert(math.abs(measured - 250) < 50)
  }

  test("typeIds maps the alphabet densely") {
    assert(StreamGen.typeIds(3) ==
      Map("T000" -> 0, "T001" -> 1, "T002" -> 2))
  }
}
