package repro.exec

/** Deterministic work/memory meters for the online engine, mirroring the
  * paper's cost model (§3) and memory metric (§8.1):
  *
  *  - `countUpdates` — count maintenance operations, one per live START
  *    cell a level update passes over and one per arriving START
  *    timestamp (the Non-Shared / Comp cost, Eqs 2 and 4, per cell rather
  *    than per START);
  *  - `combMults` — snapshot cells copied plus multiplications performed
  *    during count combination (the Comb cost, Eq 5);
  *  - `peakStateUnits` — maximum number of live state entries (counts,
  *    snapshot cells, window partials) at any point: the "peak memory for
  *    storing aggregates" of §8.1, in entry units (× ~16 B ≈ bytes).
  *
  * One instance per key-group task; merged associatively.
  */
final class EngineMetrics extends Serializable {
  var events: Long       = 0L
  var countUpdates: Long = 0L
  var combMults: Long    = 0L
  var curStateUnits: Long  = 0L
  var peakStateUnits: Long = 0L

  def addState(n: Long): Unit = {
    curStateUnits += n
    if (curStateUnits > peakStateUnits) peakStateUnits = curStateUnits
  }
  def removeState(n: Long): Unit = curStateUnits -= n

  /** Total work units — the executor's CPU cost in the model's currency. */
  def workUnits: Long = countUpdates + combMults

  def merge(o: EngineMetrics): Unit = {
    events += o.events
    countUpdates += o.countUpdates
    combMults += o.combMults
    // The sum of the key groups' peaks, each taken over its own run.
    peakStateUnits += o.peakStateUnits
    curStateUnits += o.curStateUnits
  }

  override def toString: String =
    s"EngineMetrics(events=$events, countUpdates=$countUpdates, " +
      s"combMults=$combMults, peakStateUnits=$peakStateUnits)"
}
