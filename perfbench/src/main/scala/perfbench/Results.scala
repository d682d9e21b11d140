package perfbench

import java.util.concurrent.atomic.AtomicLongArray
import repro.core.{KeyedWindowResult, WindowDef}
import repro.nexmark._

/** Order-independent hash of one (key, windowEnd, value) result. */
object ResultHash {
  private def mix(a: Long): Long = {
    var z = a * 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
  def apply(key: Long, windowEnd: Long, value: Long): Long = mix(key * 31 + mix(windowEnd * 17 + mix(value)))
}

/** Count and checksum of results per window, indexed by slot
  * `windowEnd / slide - 1`. Shared by every sink instance of a job.
  */
final class WindowTally(val slots: Int, val slideMs: Long) {
  val count = new AtomicLongArray(slots)
  val sum   = new AtomicLongArray(slots)
  /** Worst latency (ns) seen per window, for counting independent windows. */
  val worst = new AtomicLongArray(slots)
  @volatile var outOfRange = 0L

  def slotOf(windowEnd: Long): Int = (windowEnd / slideMs - 1).toInt

  /** Tally one result; returns its slot, or -1 when outside the run. */
  def add(windowEnd: Long, hash: Long): Int = {
    val s = slotOf(windowEnd)
    if (s < 0 || s >= slots) { synchronized(outOfRange += 1); -1 }
    else {
      count.incrementAndGet(s)
      sum.addAndGet(s, hash)
      s
    }
  }

  def noteLatency(slot: Int, ns: Long): Unit = {
    var cur = worst.get(slot)
    while (ns > cur && !worst.compareAndSet(slot, cur, ns)) cur = worst.get(slot)
  }

  /** Windows whose worst result took at least `ns`. */
  def windowsAtLeast(ns: Long): Int = {
    var n = 0
    var i = 0
    while (i < slots) { if (worst.get(i) >= ns) n += 1; i += 1 }
    n
  }
}

/** Expected per-window counts and checksums of one sink. */
final class Expected(val count: Array[Long], val sum: Array[Long]) {
  def results: Long = count.sum

  /** Results of windows whose count or checksum differ, counting each such
    * window as wholly failed; results outside every window count too.
    */
  def failedIn(t: WindowTally): Long = {
    require(t.slots == count.length, "tally and oracle disagree on the window range")
    var failed = t.outOfRange
    var i      = 0
    while (i < count.length) {
      if (t.count.get(i) != count(i) || t.sum.get(i) != sum(i))
        failed += math.max(1L, math.max(count(i), t.count.get(i)))
      i += 1
    }
    failed
  }

  /** Expected results of the windows on which two tallies of the same
    * input disagree.
    */
  def failedBetween(a: WindowTally, b: WindowTally): Long =
    (0 until a.slots).iterator
      .filter(i => a.count.get(i) != b.count.get(i) || a.sum.get(i) != b.sum.get(i))
      .map(i => math.max(1L, count(i))).sum

  /** Windows on which two tallies of the same input disagree. */
  def windowsDiffering(a: WindowTally, b: WindowTally): Long =
    (0 until a.slots).count(i => a.count.get(i) != b.count.get(i) || a.sum.get(i) != b.sum.get(i)).toLong
}

/** Recomputes the results of the benchmarked queries from the generator,
  * outside the timed phase. Windows follow the engine's frame semantics: the
  * window ending at `we` holds the events with `we - size <= ts < we`, and a
  * key yields a result only when it has data in the window.
  */
object Oracle {

  /** Number of window slots a run over `events` events can produce. */
  def slots(gen: Generator, events: Long, wd: WindowDef): Int =
    (gen.tsOf(events - 1) / wd.slideMs + wd.frameCount + 1).toInt

  private def frameOf(ts: Long, wd: WindowDef): Int = (ts / wd.slideMs).toInt

  /** Q5 at the aggregating stage (bids per auction per window) and after
    * the max stage (auctions with the most bids per window).
    */
  def q5(gen: Generator, events: Long, wd: WindowDef): (Expected, Expected) = {
    val keys   = gen.cfg.numAuctions
    val n      = slots(gen, events, wd)
    val frames = Array.ofDim[Int](keys, n)
    var seq    = 0L
    while (seq < events) {
      gen.eventOf(seq) match {
        case b: Bid => frames(b.auction.toInt)(frameOf(b.ts, wd)) += 1
        case _      =>
      }
      seq += 1
    }
    val aggCount = new Array[Long](n)
    val aggSum   = new Array[Long](n)
    val maxCount = new Array[Long](n)
    val maxSum   = new Array[Long](n)
    val window   = Array.ofDim[Long](keys, n)
    val f        = wd.frameCount
    for (k <- 0 until keys) {
      var running = 0L
      var j       = 0
      while (j < n) {
        running += frames(k)(j)
        if (j >= f) running -= frames(k)(j - f)
        window(k)(j) = running
        if (running > 0) {
          aggCount(j) += 1
          aggSum(j) += ResultHash(k.toLong, (j + 1) * wd.slideMs, running)
        }
        j += 1
      }
    }
    for (j <- 0 until n) {
      var mx = 0L
      for (k <- 0 until keys) mx = math.max(mx, window(k)(j))
      if (mx > 0) for (k <- 0 until keys if window(k)(j) == mx) {
        maxCount(j) += 1
        maxSum(j) += ResultHash(k.toLong, (j + 1) * wd.slideMs, mx)
      }
    }
    (new Expected(aggCount, aggSum), new Expected(maxCount, maxSum))
  }

  /** Q8: persons that appear and also sell an auction within the window. */
  def q8(gen: Generator, events: Long, wd: WindowDef): Expected = {
    val keys     = gen.cfg.numPersons
    val n        = slots(gen, events, wd)
    val persons  = Array.ofDim[Int](keys, n)
    val auctions = Array.ofDim[Int](keys, n)
    var seq      = 0L
    while (seq < events) {
      gen.eventOf(seq) match {
        case p: Person  => persons(p.id.toInt)(frameOf(p.ts, wd)) += 1
        case a: Auction => auctions(a.seller.toInt)(frameOf(a.ts, wd)) += 1
        case _          =>
      }
      seq += 1
    }
    val count = new Array[Long](n)
    val sum   = new Array[Long](n)
    val f     = wd.frameCount
    for (k <- 0 until keys) {
      val nameHash = gen.nameOf(k.toLong).hashCode.toLong
      var ps, as   = 0L
      var j        = 0
      while (j < n) {
        ps += persons(k)(j); as += auctions(k)(j)
        if (j >= f) { ps -= persons(k)(j - f); as -= auctions(k)(j - f) }
        if (ps > 0 && as > 0) {
          count(j) += 1
          sum(j) += ResultHash(k.toLong, (j + 1) * wd.slideMs, nameHash)
        }
        j += 1
      }
    }
    new Expected(count, sum)
  }

  /** Tallies one sink item; returns its window slot, or -1. */
  def tally(item: Any, t: WindowTally): Int = item match {
    case r: KeyedWindowResult[_, _] =>
      t.add(r.windowEnd, ResultHash(r.key.asInstanceOf[Long], r.windowEnd, r.result.asInstanceOf[Long]))
    case q: Q5Out => t.add(q.windowEnd, ResultHash(q.auction, q.windowEnd, q.cnt))
    case q: Q8Out => t.add(q.windowEnd, ResultHash(q.person, q.windowEnd, q.name.hashCode.toLong))
    case other    => throw new IllegalStateException(s"unexpected sink item $other")
  }
}
