package repro.exec

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Optimizer
import repro.core.Model._
import repro.exec.CompiledPlan._
import EngineFixtures._

/** Online engine unit tests reproducing the paper's execution traces:
  * Fig 6(a) online aggregation, Fig 6(b) expiration, Fig 7 shared count
  * combination — plus tie handling and brute-force ground truth.
  */
class EngineSpec extends AnyFunSuite {

  // Alphabet A=0, B=1, C=2, D=3, E=4, F=5.
  private val ids  = Map[EventType, Int]("A" -> 0, "B" -> 1, "C" -> 2, "D" -> 3, "E" -> 4, "F" -> 5)
  private def ev(t: Long, ty: String): Event = Event(0L, t, ids(ty))

  private def workloadOf(win: WindowSpec, ps: Pattern*): Workload =
    Workload(win, ps)

  test("Fig 6(a): count(A,B) over a1 b2 a3 b4 b5 is 1, 3, 5") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    def cnt(): Long =
      eng.results().collectFirst { case QueryWindowCount(_, 0L, c) => c }.getOrElse(0L)
    eng.feed(ev(1, "A")); eng.feed(ev(2, "B"))
    assert(cnt() == 1)
    eng.feed(ev(3, "A")); eng.feed(ev(4, "B"))
    assert(cnt() == 3)
    eng.feed(ev(5, "B"))
    assert(cnt() == 5)
  }

  test("Fig 6(b): expiration — window [2,6) counts 2") {
    val win = WindowSpec(4, 1)
    val w   = workloadOf(win, Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(4, "B"), ev(5, "B"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 2L)) == 2)  // (a3,b4), (a3,b5) — a1 expired
    assert(res((0, 0L)) == 1)  // (a1,b2)
    assert(res((0, 1L)) == 3)  // (a1,b2), (a1,b4), (a3,b4)
    assert(res((0, 3L)) == 2)  // (a3,b4), (a3,b5)
    assert(!res.contains((0, 4L)))
    assert(!res.contains((0, 5L)))
  }

  test("Fig 7: shared method — count(A,B,C,D) combined from (A,B) and (C,D) is 7") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("A", "B"))
    // Share (A,B) between both queries, and decompose q0 as (A,B)+(C,D)
    // via a private gap segment: compile with the shared candidate (A,B).
    val plan = Seq(candidate(w, Pattern("A", "B"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"),
      ev(4, "B"), ev(5, "B"), ev(5, "D"), ev(7, "C"), ev(8, "D"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 7)  // the paper's count(A,B,C,D) = 7
    assert(res((1, 0L)) == 5)  // count(A,B) = 5 (Fig 6(a))
  }

  test("Fig 7 intermediate: after d5 the combined count is 1") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"), ev(4, "B"),
      ev(5, "B"), ev(5, "D")).foreach(eng.feed)
    val afterD5 = eng.results()
      .collectFirst { case QueryWindowCount(0, 0L, c) => c }.getOrElse(0L)
    assert(afterD5 == 1)
  }

  test("shared and non-shared compilations produce identical counts (Fig 7 stream)") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("A", "B"))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"),
      ev(4, "B"), ev(5, "B"), ev(5, "D"), ev(7, "C"), ev(8, "D"))
    val shared    = CompiledPlan.compile(w, Seq(candidate(w, Pattern("A", "B"), Set(0, 1))), ids)
    val nonShared = CompiledPlan.nonShared(w, ids)
    assert(runEngine(shared, events)._1 == runEngine(nonShared, events)._1)
  }

  test("strict time semantics: simultaneous events cannot form a sequence") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), ev(1, "B")))
    assert(res.isEmpty)
  }

  test("ties: a B at the same time as one A pairs only with earlier As") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), ev(2, "A"), ev(2, "B")))
    assert(res((0, 0L)) == 1) // only (a1, b2)
  }

  test("ties inside a shared combination step (C at same time as B)") {
    val win  = WindowSpec(100, 100)
    val w    = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C"))
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0), Vector(1, 2)))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(2, "C"), ev(3, "C"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 1) // (a1,b2,c3) only; c2 simultaneous with b2
    assert(res((1, 0L)) == 1) // (b2,c3)
  }

  test("ties: a START simultaneous with a shared segment's START is not its prefix") {
    val win  = WindowSpec(100, 100)
    val w    = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("B", "C"))
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    assert(cw.queries(0).segments.map(_.types) ==
      Vector(Vector(0), Vector(1, 2), Vector(3)))
    val events = Seq(ev(1, "A"), ev(2, "A"), ev(2, "B"), ev(3, "C"), ev(4, "D"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 1) // (a1,b2,c3,d4) only; a2 simultaneous with b2
    assert(res((1, 0L)) == 1)
  }

  test("single-type gap segments behave like A-Seq levels") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B"))
    val plan = Seq(candidate(w, Pattern("A", "B"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    // q0 = shared (A,B) + private gap (C) of length 1.
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0, 1), Vector(2)))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "C"))
    val (res, _) = runEngine(cw, events)
    assert(res((0, 0L)) == 2)
    assert(res((1, 0L)) == 1)
  }

  test("prefix gap + shared + suffix gap decomposition") {
    val win = WindowSpec(100, 100)
    val w   = workloadOf(win, Pattern("A", "B", "C", "D"), Pattern("B", "C"))
    val plan = Seq(candidate(w, Pattern("B", "C"), Set(0, 1)))
    val cw   = CompiledPlan.compile(w, plan, ids)
    assert(cw.queries(0).segments.map(_.types) ==
      Vector(Vector(0), Vector(1, 2), Vector(3)))
    val events = Seq(ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "D"),
      ev(5, "B"), ev(6, "C"), ev(7, "D"))
    val (res, _) = runEngine(cw, events)
    // brute force: sequences A<B<C<D
    val expected = bruteCount(events, Vector(0, 1, 2, 3), win)
    assert(res.collect { case ((0, ws), c) => ws -> c } == expected)
  }

  test("empty stream yields no results") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 1), Pattern("A", "B")), ids)
    assert(runEngine(cw, Seq.empty)._1.isEmpty)
  }

  test("stream with no END events yields no results") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 1), Pattern("A", "B")), ids)
    assert(runEngine(cw, Seq(ev(1, "A"), ev(2, "A")))._1.isEmpty)
  }

  test("events of foreign types are ignored") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), ev(2, "D"), ev(3, "C"), ev(4, "B")))
    assert(res((0, 0L)) == 1)
  }

  test("keys partition matches: multi-key streams sum per-key counts") {
    val win = WindowSpec(10, 10)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val events = Seq(
      Event(1, 1, 0), Event(1, 2, 1),   // key 1: 1 match
      Event(2, 1, 0), Event(2, 2, 1), Event(2, 3, 1)) // key 2: 2 matches
    val res = runEngineMultiKey(cw, events)
    assert(res((0, 0L)) == 3)
  }

  test("metrics: sharing reduces work (shared pattern counted once)") {
    val win = WindowSpec(100, 100)
    val w = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B", "D"))
    val events = randomEvents(1L, 60, 90, 4, 1)
    val planned = CompiledPlan.compile(w,
      Seq(candidate(w, Pattern("A", "B"), Set(0, 1))), ids)
    val (resS, mS) = runEngine(planned, events)
    val (resN, mN) = runEngine(CompiledPlan.nonShared(w, ids), events)
    assert(resS == resN)
    assert(mS.countUpdates < mN.countUpdates)
  }

  test("metrics: peak state is tracked and positive") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val (_, m) = runEngine(cw, Seq(ev(1, "A"), ev(2, "B")))
    assert(m.peakStateUnits > 0)
    assert(m.events == 2)
  }

  /** (countUpdates, combMults, peakStateUnits), merged over key groups. */
  private def meters(cw: CompiledWorkload, events: Seq[Event]): (Long, Long, Long) = {
    val m = new EngineMetrics
    events.groupBy(_.key).values.foreach(evs => m.merge(runEngine(cw, evs)._2))
    (m.countUpdates, m.combMults, m.peakStateUnits)
  }

  test("metrics: work and peak state are pinned on fixed streams") {
    val fig7 = Seq(ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(3, "C"),
      ev(4, "B"), ev(5, "B"), ev(5, "D"), ev(7, "C"), ev(8, "D"))
    val w7 = workloadOf(WindowSpec(100, 100), Pattern("A", "B", "C", "D"), Pattern("A", "B"))
    val shared7 = CompiledPlan.compile(w7, Seq(candidate(w7, Pattern("A", "B"), Set(0, 1))), ids)
    assert(meters(shared7, fig7) == ((10L, 10L, 12L)))
    assert(meters(CompiledPlan.nonShared(w7, ids), fig7) == ((14L, 5L, 8L)))
    // Seed 0 of the two property tests below.
    val w1 = workloadOf(WindowSpec(12, 4), Pattern("A", "B", "C"), Pattern("B", "C"), Pattern("A", "B"))
    assert(meters(CompiledPlan.nonShared(w1, ids), randomEvents(0L, 40, 30, 4, 2)) ==
      ((79L, 92L, 51L)))
    val w2 = workloadOf(WindowSpec(12, 4),
      Pattern("A", "B", "C"), Pattern("B", "C", "D"), Pattern("A", "B", "C", "D"))
    val shared2 = CompiledPlan.compile(w2, Seq(candidate(w2, Pattern("B", "C"), Set(0, 1, 2))), ids)
    assert(meters(shared2, randomEvents(1000L, 40, 30, 4, 2)) == ((59L, 203L, 112L)))
  }

  test("ties: STARTs of one timestamp are one cell, and a START completed at one timestamp is combined once") {
    val w  = workloadOf(WindowSpec(100, 100), Pattern("A", "B", "C", "D"), Pattern("C", "D"))
    val cw = CompiledPlan.compile(w, Seq(candidate(w, Pattern("C", "D"), Set(0, 1))), ids)
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0, 1), Vector(2, 3)))
    // n As at time 1, then b2, c3 and h Ds at time 4.
    def run(n: Int, h: Int): EngineMetrics = {
      val events = Seq.fill(n)(ev(1, "A")) ++ Seq(ev(2, "B"), ev(3, "C")) ++ Seq.fill(h)(ev(4, "D"))
      val (res, m) = runEngine(cw, events)
      assert(res((0, 0L)) == bruteCount(events, Vector(0, 1, 2, 3), w.window)(0L), s"n=$n h=$h")
      assert(res((0, 0L)) == n.toLong * h)
      m
    }
    val one = run(1, 1)
    val as  = run(40, 1)
    assert(as.countUpdates == one.countUpdates)
    assert(as.peakStateUnits == one.peakStateUnits)
    assert(run(1, 40).combMults == one.combMults)
    assert(run(40, 40).combMults == one.combMults)
  }

  test("combination is per pane: the As of one pane are one cell, and each pane costs one unit per level") {
    val w  = workloadOf(WindowSpec(1000, 2), Pattern("A", "B", "C", "D"), Pattern("B", "C"))
    val cw = CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1))), ids)
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0), Vector(1, 2), Vector(3)))
    // `perPane` As, each at its own timestamp, in each of the 2 s panes 1..panes.
    def mults(panes: Int, perPane: Int): Long = {
      val as = for (p <- 1 to panes; i <- 0 until perPane) yield ev(2L * p + i, "A")
      val (res, m) = runEngine(cw, as ++ Seq(ev(700, "B"), ev(710, "C"), ev(720, "D")))
      assert(res((0, 0L)) == panes.toLong * perPane)
      m.combMults
    }
    val mults150 = mults(150, 1)
    val mults300 = mults(300, 1)
    // A second A in every pane joins the first one's cell: no work at all.
    assert(mults(150, 2) == mults150)
    assert(mults(300, 2) == mults300)
    // Each pane costs one snapshot read at b700, one combined cell at
    // c710 and one snapshot read at d720; the final level costs per window.
    assert(mults300 - mults150 == 3 * 150)
  }

  test("per-pane A-Seq: a position-0 segment holds one cell per live pane, whatever its STARTs") {
    val win = WindowSpec(1000, 250)
    val w   = workloadOf(win, Pattern("A", "B"))
    val cw  = CompiledPlan.nonShared(w, ids)
    val livePanes = win.lengthSec / win.slideSec + 1
    // n As and n Bs alternating over one window, each at its own timestamp.
    def run(n: Int): EngineMetrics = {
      val step   = 1000 / (2 * n)
      val events = (0 until n).flatMap(i => Seq(ev(2L * i * step, "A"), ev((2L * i + 1) * step, "B")))
      val (res, m) = runEngine(cw, events)
      assert(res == bruteWorkload(events, w, ids), s"n=$n")
      // Each A joins or opens a cell; each B advances at most `livePanes` cells.
      assert(m.countUpdates <= n + n * livePanes, s"n=$n")
      m
    }
    val few  = run(20)
    val many = run(250)
    assert(many.peakStateUnits == few.peakStateUnits)
  }

  test("a later-position segment merges STARTs while its readers' prefix counts stay the same") {
    val w  = workloadOf(WindowSpec(100, 100), Pattern("A", "B", "C"), Pattern("B", "C"))
    val cw = CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1))), ids)
    assert(cw.queries(0).segments.map(_.types) == Vector(Vector(0), Vector(1, 2)))
    def run(events: Seq[Event]): EngineMetrics = {
      val (res, m) = runEngine(cw, events)
      assert(res == bruteWorkload(events, w, ids), events.mkString(" "))
      m
    }
    // a1 then n Bs: every B sees the same count(A) = 1, so the Bs are one cell.
    def merged(n: Int) = run(ev(1, "A") +: (1 to n).map(i => ev(1L + i, "B")) :+ ev(50, "C"))
    // An A before every B: each B sees a new count(A), so each is its own cell.
    def split(n: Int) = run((1 to n).flatMap(i => Seq(ev(2L * i - 1, "A"), ev(2L * i, "B"))) :+ ev(50, "C"))
    // One update per arriving START, plus one per live B cell at c50.
    assert(merged(1).countUpdates == 3)
    assert(merged(10).countUpdates == 1 + 10 + 1)
    assert(merged(10).peakStateUnits == merged(1).peakStateUnits)
    assert(split(10).countUpdates == 10 + 10 + 10)
    assert(split(10).peakStateUnits > merged(10).peakStateUnits)
  }

  test("expiration prunes state on long streams (streaming emission)") {
    val win = WindowSpec(4, 1)
    val cw  = CompiledPlan.nonShared(workloadOf(win, Pattern("A", "B")), ids)
    val m   = new EngineMetrics
    val eng = new KeyGroupEngine(cw, m)
    var emitted = 0L
    (0 until 200).foreach { i =>
      eng.feed(ev(i * 2L, "A")); eng.feed(ev(i * 2L + 1, "B"))
      emitted += eng.emitClosed(i * 2L).map(_.count).sum
    }
    emitted += eng.emitClosed(Long.MaxValue).map(_.count).sum
    // START expiration + closed-window emission keep state bounded by the
    // window horizon, independent of stream length (§3.2).
    assert(m.peakStateUnits < 100)
    assert(emitted > 0)
  }

  // One length-10 pattern T0..T9 with `n` events of type Ti at time i,
  // all in one window: the true count is n^10.
  private val tenTypes = (0 until 10).map(i => s"T$i").toVector
  private val tenIds   = tenTypes.zipWithIndex.toMap
  private val tenWl    = Workload(WindowSpec(100, 100),
    Seq(Pattern(tenTypes), Pattern(tenTypes.slice(3, 6))))
  private val tenPlans = Seq(
    "no sharing" -> CompiledPlan.nonShared(tenWl, tenIds),
    "sharing T3..T5" -> CompiledPlan.compile(tenWl,
      Seq(candidate(tenWl, Pattern(tenTypes.slice(3, 6)), Set(0, 1))), tenIds))
  private def tenEvents(n: Int): Seq[Event] =
    for (t <- 0 until 10; _ <- 0 until n) yield Event(0L, t.toLong, t)

  test("overflow: a count above Long.MaxValue throws instead of wrapping") {
    assert(tenPlans(1)._2.queries(0).segments.size == 3)
    // 10^20: without sharing, the START cell at time 0 holds all of them
    // and overflows its own count; with sharing, the combination overflows.
    val segmentOverflow =
      s"count of segment (${tenTypes.mkString(",")}) from its START at 0 overflows a Long"
    val messages = Seq(segmentOverflow, "count of query 0 in the window starting at 0 overflows a Long")
    for (((name, cw), message) <- tenPlans.zip(messages)) withClue(name) {
      val e = intercept[ArithmeticException](runEngine(cw, tenEvents(100)))
      assert(e.getMessage == message)
    }
    // 130^9 > Long.MaxValue: even one START at time 0 overflows its own count.
    val e = intercept[ArithmeticException](runEngine(tenPlans(0)._2, tenEvents(130)))
    assert(e.getMessage == segmentOverflow)
  }

  test("overflow: a count just below Long.MaxValue stays exact") {
    for ((name, cw) <- tenPlans)
      assert(runEngine(cw, tenEvents(75))._1((0, 0L)) == 5631351470947265625L, name) // 75^10
  }

  test("overflow: refused only where a count overflows, not in a sum of panes no window holds") {
    // (T0..T9) is shared, so q0 = (T0..T9)|(Y,Z). 62 of each Ti at time i
    // and 62 more at 10 + i: STARTs in pane 0 (times 0-9) count 10 × 62^10
    // sequences, those in pane 1 count 62^10, and both panes together
    // 11 × 62^10 > Long.MaxValue.
    val types = tenTypes ++ Vector("Y", "Z", "W")
    val tyIds = types.zipWithIndex.toMap
    val w     = Workload(WindowSpec(100, 10),
      Seq(Pattern(tenTypes :+ "Y" :+ "Z"), Pattern(tenTypes :+ "W")))
    val plans = Seq(
      "A-Seq" -> CompiledPlan.nonShared(w, tyIds),
      "Sharon" -> CompiledPlan.compile(w, Seq(candidate(w, Pattern(tenTypes), Set(0, 1))), tyIds))
    assert(plans(1)._2.queries(0).segments.map(_.types.size) == Vector(10, 2))
    def stream(z: Long): Seq[Event] =
      (for (t <- 0 until 10; off <- Seq(0, 10); _ <- 0 until 62) yield Event(0L, t + off.toLong, t)) ++
        Seq(Event(0L, 20, tyIds("Y")), Event(0L, z, tyIds("Z")))
    for ((name, cw) <- plans) withClue(name) {
      // Z@105 lies in windows 10..100 only: pane 0 has expired.
      assert(runEngine(cw, stream(105))._1 == Map((0, 10L) -> 839299365868340224L)) // 62^10
      // Z@95 lies in window 0 too, whose count is 11 × 62^10.
      val e = intercept[ArithmeticException](runEngine(cw, stream(95)))
      assert(e.getMessage == "count of query 0 in the window starting at 0 overflows a Long")
    }
  }

  // Windows whose length is not a multiple of the slide: STARTs of one
  // pane then can have different first windows.
  private val oddWindows = Seq(WindowSpec(10, 3), WindowSpec(12, 5))

  test("property: A-Seq engine equals brute force on random streams") {
    for (win <- WindowSpec(12, 4) +: oddWindows) {
      val w  = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C"), Pattern("A", "B"))
      val cw = CompiledPlan.nonShared(w, ids)
      for (seed <- 0L until 30L) {
        val events = randomEvents(seed, 40, 30, 4, 2)
        val res    = runEngineMultiKey(cw, events)
        val brute  = bruteWorkload(events, w, ids)
        assert(res == brute, s"$win seed=$seed")
      }
    }
  }

  // Three segments for q2, (A)|(B,C)|(D); 40 events over 4 types per seed.
  private val wShared = workloadOf(WindowSpec(12, 4),
    Pattern("A", "B", "C"), Pattern("B", "C", "D"), Pattern("A", "B", "C", "D"))
  private val shared  = CompiledPlan.compile(wShared,
    Seq(candidate(wShared, Pattern("B", "C"), Set(0, 1, 2))), ids)
  // Four segments for q0, (A)|(B,C)|(D)|(E,F): two intermediate levels.
  // 80 events over 6 types per seed.
  private val wFour = workloadOf(WindowSpec(12, 4),
    Pattern("A", "B", "C", "D", "E", "F"), Pattern("B", "C"), Pattern("E", "F"))
  private val four  = CompiledPlan.compile(wFour, Seq(
    candidate(wFour, Pattern("B", "C"), Set(0, 1)),
    candidate(wFour, Pattern("E", "F"), Set(0, 2))), ids)
  private val sharonCases = Seq(
    ("Sharon", wShared, shared, (seed: Long) => randomEvents(seed + 1000, 40, 30, 4, 2)),
    ("Sharon, four segments", wFour, four, (seed: Long) => randomEvents(seed + 2000, 80, 30, 6, 2))) ++
    oddWindows.map { win =>
      val w = Workload(wShared.queries.map(_.copy(window = win)))
      (s"Sharon, $win", w, CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1, 2))), ids),
        (seed: Long) => randomEvents(seed + 1000, 40, 30, 4, 2))
    }
  private val wASeq    = workloadOf(WindowSpec(12, 4),
    Pattern("A", "B", "C"), Pattern("B", "C"), Pattern("A", "B"))
  private val aseq     = CompiledPlan.nonShared(wASeq, ids)
  // Dense ties: 80 events over 7 timestamps and 2 keys, so many STARTs
  // and completions of one segment share a timestamp.
  private val denseCases = Seq(
    ("A-Seq, dense ties", wASeq, aseq, (seed: Long) => randomEvents(seed + 4000, 80, 6, 4, 2)),
    ("Sharon, dense ties", wShared, shared, (seed: Long) => randomEvents(seed + 5000, 80, 6, 4, 2)),
    ("Sharon, four segments, dense ties", wFour, four,
      (seed: Long) => randomEvents(seed + 6000, 80, 6, 6, 2)))
  private val allCases = (("A-Seq", wASeq, aseq,
    (seed: Long) => randomEvents(seed, 40, 30, 4, 2)) +: sharonCases) ++ denseCases

  test("property: Sharon engine equals brute force under a sharing plan") {
    assert(shared.queries(2).segments.size == 3)
    assert(four.queries(0).segments.map(_.types) ==
      Vector(Vector(0), Vector(1, 2), Vector(3), Vector(4, 5)))
    for ((name, w, cw, events) <- sharonCases) {
      val deepest = cw.queries.maxBy(_.segments.size).ids.head
      var nonzero = 0
      for (seed <- 0L until 30L) {
        val res = runEngineMultiKey(cw, events(seed))
        assert(res == bruteWorkload(events(seed), w, ids), s"$name seed=$seed")
        nonzero += res.count { case ((q, _), _) => q == deepest }
      }
      assert(nonzero > 0, name) // some seed counts across every segment
    }
  }

  test("property: engine results independent of same-time arrival order") {
    val orders = Seq[(String, Event => Int)](
      "types ascending" -> (e => e.etype), "types descending" -> (e => -e.etype))
    var mixedTies = 0
    var startTies = 0
    for ((name, w, cw, stream) <- allCases; seed <- 0L until 30L) {
      val events = stream(seed)
      mixedTies += events.groupBy(e => (e.key, e.time)).count(_._2.map(_.etype).distinct.size > 1)
      startTies += events.groupBy(e => (e.key, e.time, e.etype)).count(_._2.size > 1)
      val brute = bruteWorkload(events, w, ids)
      for ((order, tie) <- orders)
        assert(runEngineMultiKey(cw, events, tie) == brute, s"$name seed=$seed, $order")
    }
    assert(mixedTies > 0) // the streams do hold same-time events of different types
    assert(startTies > 0) // and of one type: STARTs that share one cell
  }

  /** `w` plus a copy of its last query, placed first, and of its first
    * query, placed last, under new ids.
    */
  private def withDuplicates(w: Workload): Workload =
    Workload((w.queries.last.copy(id = w.size) +: w.queries) :+ w.queries.head.copy(id = w.size + 1))

  test("property: identical queries are evaluated once and counted under every id") {
    val unitRates   = Rates(ids.keys.map(_ -> 1.0).toMap)
    var sharedPlans = 0
    for ((name, base, _, stream) <- allCases) {
      val w    = withDuplicates(base)
      val plan = Optimizer.sharon(w, unitRates).plan
      if (plan.nonEmpty) sharedPlans += 1
      val compilations = Seq(
        "SO plan" -> CompiledPlan.compile(w, plan, ids),
        "A-Seq, distinct patterns" -> CompiledPlan.compile(w, Nil, ids),
        "A-Seq" -> CompiledPlan.nonShared(w, ids))
      assert(compilations.map(_._2.queries.size) == Seq(base.size, base.size, w.size), name)
      var copies = 0 // results of the two copies
      for (seed <- 0L until 30L) {
        val events = stream(seed)
        val brute  = bruteWorkload(events, w, ids)
        copies += brute.count(_._1._1 >= base.size)
        for ((how, cw) <- compilations)
          assert(runEngineMultiKey(cw, events) == brute, s"$name, $how, seed=$seed")
      }
      assert(copies > 0, name)
    }
    assert(sharedPlans > 0) // some case runs a shared plan over the duplicates
  }

  test("A-Seq counts an identical query twice; A-Seq over distinct patterns once") {
    val win    = WindowSpec(12, 4)
    val single = workloadOf(win, Pattern("A", "B", "C"))
    val twice  = workloadOf(win, Pattern("A", "B", "C"), Pattern("A", "B", "C"))
    val events = randomEvents(7L, 40, 30, 4, 2)
    val one    = meters(CompiledPlan.nonShared(single, ids), events)._1
    assert(one > 0)
    assert(meters(CompiledPlan.nonShared(twice, ids), events)._1 == 2 * one)
    assert(meters(CompiledPlan.compile(twice, Nil, ids), events)._1 == one)
  }

  test("streaming emission: each window once, as in batch, and no state left at the end") {
    val slide = wShared.window.slideSec
    var deepest = 0
    for (seed <- 0L until 30L) {
      val events = randomEvents(seed + 3000, 40, 30, 4, 1).sortBy(e => (e.time, e.etype))
      val m   = new EngineMetrics
      val eng = new KeyGroupEngine(shared, m)
      val emitted = Vector.newBuilder[QueryWindowCount]
      var pane = 0L
      events.foreach { e =>
        // Before the first event of each later pane, emit what its start closed.
        while (pane < e.time / slide) { pane += 1; emitted ++= eng.emitClosed(pane * slide) }
        eng.feed(e)
      }
      // An unknown type past every window's end expires every START.
      eng.feed(Event(0L, events.last.time + wShared.window.lengthSec + slide, 99))
      emitted ++= eng.emitClosed(Long.MaxValue)
      val out = emitted.result().map(r => (r.queryId, r.windowStart) -> r.count)
      assert(out.map(_._1).distinct.size == out.size, s"seed=$seed")
      assert(out.toMap == runEngine(shared, events)._1, s"seed=$seed")
      assert(m.curStateUnits == 0, s"seed=$seed")
      assertThrows[IllegalArgumentException](eng.feed(ev(events.last.time, "A"))) // before the watermark
      deepest += out.count(_._1._1 == 2)
    }
    assert(deepest > 0) // some seed counts across all three segments
  }

  test("many live START cells: the cell arrays grow, compact and empty, and counts stay exact") {
    val win = WindowSpec(48, 1)
    val w   = workloadOf(win, Pattern("A", "B", "C"), Pattern("B", "C", "D"), Pattern("A", "B", "C", "D"))
    val plans = Seq(
      "Sharon" -> CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1, 2))), ids),
      "A-Seq" -> CompiledPlan.nonShared(w, ids))
    assert(plans(0)._2.queries(2).segments.map(_.types) == Vector(Vector(0), Vector(1, 2), Vector(3)))
    // Three bursts of 200 s, 60 s apart: a gap longer than the 48 s a
    // START lives empties every segment. Within a burst, As (often two at
    // once) and Bs arrive in most seconds; Cs and Ds are sparse. With a
    // 1 s slide every second is its own pane, so a position-0 segment
    // (A's in both plans, and every A-Seq segment) holds one cell per
    // START second, and so does Sharon's (B,C), whose readers' prefix
    // counts change in most seconds.
    def stream(seed: Long): Seq[Event] = {
      val rnd   = new scala.util.Random(seed)
      val rates = Seq("A" -> 0.8, "A" -> 0.3, "B" -> 0.8, "C" -> 0.15, "D" -> 0.15)
      for (burst <- 0 until 3; t <- 260L * burst until 260L * burst + 200;
           (ty, p) <- rates if rnd.nextDouble() < p) yield ev(t, ty)
    }
    for (seed <- 0L until 3L) {
      val events = stream(seed)
      // More than 32 START seconds of A and of B live at once, and over
      // 128 in a burst: the 16-cell arrays double to 128 and then compact.
      for (ty <- Seq("A", "B")) {
        val times = events.filter(_.etype == ids(ty)).map(_.time).distinct
        assert(times.exists(t => times.count(u => u <= t && u > t - 48) > 32), s"$ty seed=$seed")
        assert(times.count(_ < 200) > 128, s"$ty seed=$seed")
      }
      val brute = bruteWorkload(events, w, ids)
      assert(brute.keys.exists(_._1 == 2), s"seed=$seed")
      for ((name, cw) <- plans) assert(runEngine(cw, events)._1 == brute, s"$name seed=$seed")
    }
  }

  test("Event.order sorts by key, then time, then type") {
    val events = for (key <- Seq(Long.MinValue, -1L, 0L, 3L, Long.MaxValue);
                      time <- Seq(0L, 5L, Long.MaxValue); etype <- Seq(-1, 0, 2, Int.MaxValue))
      yield Event(key, time, etype)
    val shuffled = new scala.util.Random(1L).shuffle(events).toArray
    java.util.Arrays.sort(shuffled, Event.order)
    assert(shuffled.toSeq == events)
    assert(Event.order.compare(Event(1L, 0L, 0), Event(0L, 9L, 9)) > 0)
    assert(Event.order.compare(Event(0L, 1L, 0), Event(0L, 0L, 9)) > 0)
    assert(Event.order.compare(Event(0L, 0L, 1), Event(0L, 0L, 0)) > 0)
    assert(Event.order.compare(Event(0L, 0L, 0), Event(0L, 0L, 0)) == 0)
  }

  test("negative timestamps are rejected") {
    val w      = workloadOf(WindowSpec(10, 5), Pattern("A", "B", "C"), Pattern("B", "C"))
    val events = Seq(ev(-3, "A"), ev(-2, "B"), ev(-1, "C"))
    val shared = CompiledPlan.compile(w, Seq(candidate(w, Pattern("B", "C"), Set(0, 1))), ids)
    for (cw <- Seq(CompiledPlan.nonShared(w, ids), shared))
      assertThrows[IllegalArgumentException](runEngine(cw, events))
  }

  test("an event sharing the timestamp of an earlier results() call is refused") {
    val cw  = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val eng = new KeyGroupEngine(cw, new EngineMetrics)
    eng.feed(ev(1, "A"))
    eng.results()
    assertThrows[IllegalArgumentException](eng.feed(ev(1, "B")))
    eng.feed(ev(2, "B"))
    assert(eng.results().map(_.count).toList == List(1L))
  }

  test("events with type ids outside the dictionary are ignored") {
    val cw = CompiledPlan.nonShared(workloadOf(WindowSpec(10, 10), Pattern("A", "B")), ids)
    val (res, _) = runEngine(cw, Seq(ev(1, "A"), Event(0L, 2, 99), Event(0L, 3, -1), ev(4, "B")))
    assert(res == Map((0, 0L) -> 1L))
  }
}
