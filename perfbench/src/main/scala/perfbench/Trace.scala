package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import repro.core._

/** Rebuilds a DAG with the same vertex names and edges, swapping each
  * vertex's processor factory.
  */
object Dags {
  def rewrap(dag: Dag, factory: Vertex => (() => Processor)): Dag = {
    val out = new Dag
    dag.vertices.foreach(v => out.newVertex(v.name, factory(v), v.localParallelism))
    dag.edges.foreach(out.edge)
    out
  }

  /** The layer a vertex belongs to, from the suffix the planner gives it. */
  def role(v: Vertex): String = v.name.substring(v.name.indexOf('-') + 1) match {
    case "src"     => "source"
    case "winjoin" => "join"
    case other     => other
  }
}

/** Reads a generator source's progress — (next sequence number, last
  * emitted watermark) — from the offset entry it saves in every snapshot.
  */
object SourceProbe {
  def progress(source: Processor): (Long, Long) =
    source.saveSnapshot().toSeq match {
      case Seq(("offset", (seq: Long, wm: Long, _))) => (seq, wm)
      case other => throw new IllegalStateException(s"unexpected source offset entry $other")
    }
}

/** Counters of one processor instance, written only by its tasklet thread
  * and read by the benchmark at phase boundaries.
  */
final class VertexStats(val vertex: String, val role: String) {
  var items, emitted, busyNs, processNs, wmNs, refusals, slides = 0L
  var snapshots, snapshotEntries, snapshotNs                    = 0L
  var sourceEvents                                              = 0L

  def copy(): VertexStats = {
    val c = new VertexStats(vertex, role)
    c.items = items; c.emitted = emitted; c.busyNs = busyNs; c.processNs = processNs
    c.wmNs = wmNs; c.refusals = refusals; c.slides = slides
    c.snapshots = snapshots; c.snapshotEntries = snapshotEntries; c.snapshotNs = snapshotNs
    c.sourceEvents = sourceEvents
    c
  }

  def minus(o: VertexStats): VertexStats = {
    val c = new VertexStats(vertex, role)
    c.items = items - o.items; c.emitted = emitted - o.emitted; c.busyNs = busyNs - o.busyNs
    c.processNs = processNs - o.processNs; c.wmNs = wmNs - o.wmNs
    c.refusals = refusals - o.refusals; c.slides = slides - o.slides; c.snapshots = snapshots - o.snapshots
    c.snapshotEntries = snapshotEntries - o.snapshotEntries; c.snapshotNs = snapshotNs - o.snapshotNs
    c.sourceEvents = sourceEvents - o.sourceEvents
    c
  }
}

/** Spans of one processor instance kept in memory: every call of at least
  * `minNanos`, up to a fixed capacity, plus a count of those dropped.
  */
final class SpanLog(capacity: Int, minNanos: Long) {
  val kind    = new Array[Byte](capacity)
  val start   = new Array[Long](capacity)
  val dur     = new Array[Long](capacity)
  var size    = 0
  var dropped = 0L

  def add(k: Byte, t0: Long, t1: Long): Unit =
    if (t1 - t0 >= minNanos) {
      if (size < capacity) { kind(size) = k; start(size) = t0; dur(size) = t1 - t0; size += 1 }
      else dropped += 1
    }
}

object SpanKind {
  val Process: Byte   = 0
  val Watermark: Byte = 1
  val Complete: Byte  = 2
  val Snapshot: Byte  = 3
  val names           = Array("process", "watermark", "complete", "snapshot")
}

/** Timing decorator around one processor. Records spans and counts around
  * `process`, `tryProcessWatermark`, `complete` and `saveSnapshot` (from the
  * call to the exhaustion of the returned iterator, which the engine
  * consumes while serializing and writing each entry to the IMDG). Calls of
  * one instance never nest, so each span's duration is its self time.
  */
final class TracedProcessor(
    inner: Processor,
    val job: Int,
    val stats: VertexStats,
    val spans: SpanLog,
    source: Option[TraceCtx]
) extends Processor {
  private var lastWm        = Long.MinValue
  private var lastSeq       = -1L
  private var step          = 1L
  private var lastSample    = 0L
  var index                 = -1

  override def init(ctx: ProcessorContext): Unit = {
    index = ctx.globalIndex
    step = ctx.totalParallelism.toLong
    inner.init(ctx)
  }

  def process(ordinal: Int, inbox: Inbox, outbox: Outbox): Unit = {
    val n0 = inbox.size
    val a0 = outbox.acceptedCount
    val t0 = System.nanoTime()
    inner.process(ordinal, inbox, outbox)
    val t1 = System.nanoTime()
    stats.items += n0 - inbox.size
    stats.emitted += outbox.acceptedCount - a0
    stats.processNs += t1 - t0
    stats.busyNs += t1 - t0
    if (inbox.nonEmpty) stats.refusals += 1
    spans.add(SpanKind.Process, t0, t1)
  }

  override def tryProcessWatermark(wm: Watermark, outbox: Outbox): Boolean = {
    val a0 = outbox.acceptedCount
    val t0 = System.nanoTime()
    val ok = inner.tryProcessWatermark(wm, outbox)
    val t1 = System.nanoTime()
    if (wm.ts != lastWm) { stats.slides += 1; lastWm = wm.ts }
    stats.emitted += outbox.acceptedCount - a0
    stats.wmNs += t1 - t0
    stats.busyNs += t1 - t0
    if (!ok) stats.refusals += 1
    spans.add(SpanKind.Watermark, t0, t1)
    ok
  }

  override def complete(outbox: Outbox): Boolean = {
    val a0   = outbox.acceptedCount
    val t0   = System.nanoTime()
    val done = inner.complete(outbox)
    val t1   = System.nanoTime()
    stats.emitted += outbox.acceptedCount - a0
    stats.busyNs += t1 - t0
    spans.add(SpanKind.Complete, t0, t1)
    source.foreach(sampleSource(_, t1))
    done
  }

  /** Source progress and, when paced, how far emission trails the schedule,
    * sampled at most once a millisecond.
    */
  private def sampleSource(ctx: TraceCtx, now: Long): Unit =
    if (now - lastSample >= 1000000L) {
      lastSample = now
      val seq = SourceProbe.progress(inner)._1
      if (lastSeq >= 0) stats.sourceEvents += (seq - lastSeq) / step
      lastSeq = seq
      ctx.pacer.foreach { p =>
        if (ctx.measuring) ctx.sourceLag.recordNanos(now - (p.start() + (seq * 1e9 / p.eventsPerSecond).toLong))
      }
    }

  override def onSnapshot(snapshotId: Long): Unit = inner.onSnapshot(snapshotId)
  override def onSnapshotCommitted(snapshotId: Long): Unit = inner.onSnapshotCommitted(snapshotId)
  override def restoreSnapshot(entries: Iterator[(Any, Any)]): Unit = inner.restoreSnapshot(entries)

  override def saveSnapshot(): Iterator[(Any, Any)] = {
    val t0 = System.nanoTime()
    val it = inner.saveSnapshot()
    new Iterator[(Any, Any)] {
      private var open = true
      def hasNext: Boolean = {
        val more = it.hasNext
        if (!more && open) {
          open = false
          val t1 = System.nanoTime()
          stats.snapshots += 1
          stats.snapshotNs += t1 - t0
          stats.busyNs += t1 - t0
          spans.add(SpanKind.Snapshot, t0, t1)
        }
        more
      }
      def next(): (Any, Any) = { stats.snapshotEntries += 1; it.next() }
    }
  }
}

/** Per-thread CPU and allocation, and GC totals, read through the JVM's
  * management beans.
  */
object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  final case class Sample(alloc: Map[Long, Long], cpu: Map[Long, Long], gcCount: Long, gcMs: Long)

  private def cooperativeIds: Set[Long] =
    Thread.getAllStackTraces.keySet.asScala.filter(_.getName.contains("-coop-")).map(_.getId).toSet

  def sample(): Sample = {
    val ids   = threads.getAllThreadIds
    val bytes = threads.getThreadAllocatedBytes(ids)
    val coop  = cooperativeIds
    val cpu   = ids.filter(coop).map(id => id -> threads.getThreadCpuTime(id)).toMap
    val gcs   = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Sample(ids.zip(bytes).filter(_._2 >= 0).toMap, cpu.filter(_._2 >= 0),
      gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum)
  }

  /** Growth between two samples; threads that ended in between drop out. */
  final case class Delta(allocBytes: Long, coopCpuNs: Long, gcCount: Long, gcMs: Long) {
    def +(o: Delta): Delta = Delta(allocBytes + o.allocBytes, coopCpuNs + o.coopCpuNs, gcCount + o.gcCount, gcMs + o.gcMs)
  }
  object Delta { val zero: Delta = Delta(0, 0, 0, 0) }

  def delta(a: Sample, b: Sample): Delta = {
    def grow(x: Map[Long, Long], y: Map[Long, Long]) = y.iterator.map { case (id, v) => v - x.getOrElse(id, 0L) }.sum
    Delta(grow(a.alloc, b.alloc), grow(a.cpu, b.cpu), b.gcCount - a.gcCount, b.gcMs - a.gcMs)
  }
}

/** Samples the receive windows of a job's distributed-edge links from
  * `Job.debugDump` every 10 ms while `active`.
  */
final class LinkSampler(job: Job, minWindow: Long) {
  private val LinkRe      = """link\(unacked=(-?\d+),win=(\d+)\)""".r
  @volatile var active    = false
  @volatile private var stop = false
  var samples, collapsed  = 0L
  var windowMin           = Long.MaxValue
  var unackedMax          = 0L

  private val thread = new Thread(() => {
    while (!stop) {
      if (active) {
        var sawCollapse = false
        var sawLink     = false
        LinkRe.findAllMatchIn(job.debugDump).foreach { m =>
          sawLink = true
          val unacked = m.group(1).toLong
          val win     = m.group(2).toLong
          windowMin = math.min(windowMin, win)
          unackedMax = math.max(unackedMax, unacked)
          if (win <= minWindow) sawCollapse = true
        }
        if (sawLink) samples += 1
        if (sawCollapse) collapsed += 1
      }
      Thread.sleep(10)
    }
  }, "perfbench-link-sampler")
  thread.setDaemon(true)
  thread.start()

  def close(): Unit = { stop = true; thread.join() }
}
