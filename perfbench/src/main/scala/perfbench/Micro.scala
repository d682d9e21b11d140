package perfbench

import repro.core._
import repro.nexmark.{Bid, Generator, NexmarkConfig}

/** Layer micro-measurements that call the engine's public classes
  * directly: each runs a warm-up trial and then `Trials` timed trials, and
  * reports the median and the spread (interquartile range / median).
  */
object Micro {
  val Trials = 5

  final case class Result(median: Double, spread: Double)

  private def measure(trial: () => Double): Result = {
    trial()
    val xs = Vector.fill(Trials)(trial()).sorted
    val q  = Stats.quartiles(xs)
    Result(q._2, if (q._2 == 0) 0 else (q._3 - q._1) / q._2)
  }

  /** ns per item handed from a producer thread to a consumer thread
    * through one SPSC queue.
    */
  def spscHandoffNs(items: Int = 2000000): Result = measure { () =>
    val q     = new SpscQueue(1024)
    val token = new Object
    val consumer = new Thread(() => {
      var n = 0
      while (n < items) { if (q.poll() != null) n += 1 else Thread.onSpinWait() }
    })
    val t0 = System.nanoTime()
    consumer.start()
    var i = 0
    while (i < items) { if (q.offer(token)) i += 1 else Thread.onSpinWait() }
    consumer.join()
    (System.nanoTime() - t0).toDouble / items
  }

  /** ns per `Outbox.offer` of a bid over one key-partitioned edge to
    * `consumers` local queues (drained outside the timed part).
    */
  def outboxPartitionedNs(consumers: Int, rounds: Int = 400): Result = {
    val gen    = new Generator(NexmarkConfig(seed = 7L))
    val bids   = (0L until 20000L).map(gen.eventOf).collect { case b: Bid => b }.toArray
    val batch  = 1024
    val queues = Array.fill(consumers)(new SpscQueue(batch))
    val outbox = new Outbox(Array(new EdgeCollector(
      queues.map(q => new LocalQueueSink(q): QueueSink),
      RoutingPolicy.Partitioned(b => b.asInstanceOf[Bid].auction))))
    measure { () =>
      var ns = 0L
      var r  = 0
      var at = 0
      while (r < rounds) {
        val t0 = System.nanoTime()
        var i  = 0
        while (i < batch) {
          val b = bids(at)
          outbox.offer(b, b.ts)
          at = (at + 1) % bids.length
          i += 1
        }
        ns += System.nanoTime() - t0
        queues.foreach(q => while (q.poll() != null) ())
        r += 1
      }
      ns.toDouble / (rounds.toLong * batch)
    }
  }

  /** ms per slide of one `CombineFramesP` holding a full 1 s / 10 ms window
    * of counting frames for `keys` keys: each slide adds one frame per key
    * (untimed) and times the watermark that emits the window.
    */
  def combineMsPerSlide(keys: Int, slides: Int): Result = {
    val wd     = WindowDef(1000, 10)
    val op     = AggregateOperations.counting
    val queue  = new SpscQueue(keys + 1024)
    val outbox = new Outbox(Array(new EdgeCollector(Array(new LocalQueueSink(queue): QueueSink), RoutingPolicy.RoundRobin)))
    val p      = new CombineFramesP(op, wd)
    p.init(ProcessorContext(0, "combine", 0, 1, 0))
    val inbox = new Inbox
    var frameEnd = 0L
    def addFrame(): Unit = {
      frameEnd += wd.slideMs
      var k = 0
      while (k < keys) {
        inbox.add(DataItem(FrameAggregate(k.toLong, frameEnd, new LongAcc(1 + k % 7)), frameEnd))
        k += 1
      }
      p.process(0, inbox, outbox)
    }
    (1 until wd.frameCount).foreach(_ => addFrame())
    while (!p.tryProcessWatermark(Watermark(frameEnd), outbox)) while (queue.poll() != null) ()
    while (queue.poll() != null) ()
    measure { () =>
      var ns = 0L
      var s  = 0
      while (s < slides) {
        addFrame()
        val t0 = System.nanoTime()
        while (!p.tryProcessWatermark(Watermark(frameEnd), outbox)) while (queue.poll() != null) ()
        ns += System.nanoTime() - t0
        while (queue.poll() != null) ()
        s += 1
      }
      ns / 1e6 / slides
    }
  }

  final case class LinkResult(ackNs: Result, collapses: Result)

  /** One sender pushing through a shared receive window into two queues
    * whose consumers receive and acknowledge concurrently, as two consumer
    * instances on one member do. Reports ns per item and how often the
    * sender saw the window collapse to its minimum.
    */
  def receiveWindow(items: Int = 1000000): LinkResult = {
    var collapses = Vector.empty[Double]
    val ns = measure { () =>
      val link   = new ReceiveWindow(ackIntervalMs = 1)
      val queues = Array.fill(2)(new SpscQueue(1024))
      val sinks  = queues.map(q => new FlowControlledSink(q, link))
      @volatile var sent = false
      val consumers = queues.map { q =>
        new Thread(() => {
          var idle = false
          while (!(sent && idle)) {
            var n = 0
            while (q.poll() != null) n += 1
            if (n > 0) link.onReceive(n) else link.maybeAck()
            idle = n == 0 && q.isEmpty
          }
        })
      }
      val token = new Object
      var seen  = 0L
      var wasMin = false
      val t0    = System.nanoTime()
      consumers.foreach(_.start())
      var i = 0
      while (i < items) {
        if (sinks(i & 1).offer(token)) i += 1
        else {
          val atMin = link.currentWindow <= link.minWindow
          if (atMin && !wasMin) seen += 1
          wasMin = atMin
          Thread.onSpinWait()
        }
      }
      sent = true
      consumers.foreach(_.join())
      val elapsed = System.nanoTime() - t0
      collapses :+= seen.toDouble
      elapsed.toDouble / items
    }
    val c = collapses.drop(1).sorted
    val q = Stats.quartiles(c)
    LinkResult(ns, Result(q._2, if (q._2 == 0) 0 else (q._3 - q._1) / q._2))
  }
}

object Stats {
  /** First quartile, median and third quartile (Python's exclusive method). */
  def quartiles(sorted: Seq[Double]): (Double, Double, Double) = {
    val n = sorted.size
    if (n == 0) return (0, 0, 0)
    if (n == 1) return (sorted(0), sorted(0), sorted(0))
    def at(m: Int): Double = {
      val pos = m * (n + 1) / 4.0
      val j   = math.min(math.max(pos.toInt, 1), n - 1)
      val d   = math.min(math.max(pos - j, 0.0), 1.0)
      sorted(j - 1) + (sorted(j) - sorted(j - 1)) * d
    }
    (at(1), median(sorted), at(3))
  }

  def median(sorted: Seq[Double]): Double = {
    val n = sorted.size
    if (n == 0) 0 else if (n % 2 == 1) sorted(n / 2) else (sorted(n / 2 - 1) + sorted(n / 2)) / 2
  }
}
