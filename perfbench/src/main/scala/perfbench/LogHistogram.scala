package perfbench

import java.util.concurrent.atomic.AtomicLongArray

/** Log-linear latency recorder in the style of HdrHistogram.
  *
  * Values are kept in whole microseconds: exact below 256 µs, and above that
  * 128 sub-buckets per power of two. A percentile is reported as its bucket's
  * midpoint, so it lies within 0.4% of the recorded value (1 µs floor).
  * Recording is wait-free and safe from several sink threads.
  */
final class LogHistogram {
  import LogHistogram._

  private val counts = new AtomicLongArray(Buckets)

  def recordNanos(ns: Long): Unit = { counts.incrementAndGet(indexOf(math.max(0L, ns) / 1000L)); () }

  def totalCount: Long = {
    var n = 0L
    var i = 0
    while (i < Buckets) { n += counts.get(i); i += 1 }
    n
  }

  /** Lower bound, in nanoseconds, of the bucket holding percentile `p`. */
  def floorNanosAt(p: Double): Long = lowerBound(bucketAt(p)) * 1000L

  /** Percentile `p` (0 < p <= 100) in milliseconds, or 0 when empty. */
  def percentileMs(p: Double): Double = {
    val i = bucketAt(p)
    (lowerBound(i) + width(i) / 2.0) / 1000.0
  }

  private def bucketAt(p: Double): Int = {
    val total = totalCount
    if (total == 0) return 0
    val rank = math.max(1L, math.ceil(p / 100.0 * total).toLong)
    var seen = 0L
    var i    = 0
    while (i < Buckets) {
      seen += counts.get(i)
      if (seen >= rank) return i
      i += 1
    }
    Buckets - 1
  }
}

object LogHistogram {
  private val SubBits = 7
  private val Sub     = 1 << SubBits
  private val Linear  = 2 * Sub
  val Buckets: Int    = Linear + (64 - 8) * Sub

  def indexOf(us: Long): Int =
    if (us < Linear) us.toInt
    else {
      val e = 63 - java.lang.Long.numberOfLeadingZeros(us)
      Linear + (e - 8) * Sub + ((us >>> (e - SubBits)) - Sub).toInt
    }

  def lowerBound(i: Int): Long =
    if (i < Linear) i.toLong
    else {
      val e   = (i - Linear) / Sub + 8
      val top = (i - Linear) % Sub + Sub
      top.toLong << (e - SubBits)
    }

  def width(i: Int): Long = if (i < Linear) 1L else 1L << ((i - Linear) / Sub + 8 - SubBits)
}
