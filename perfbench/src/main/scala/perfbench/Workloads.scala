package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable
import repro.core._
import repro.nexmark.{Generator, NexmarkConfig, Queries}
import repro.pipeline.{ForeachSinkDef, Pipeline, SinkDef}

/** One benchmark workload: a NEXMark query, its cluster shape and its load.
  * `rate > 0` is an open loop paced at that many events per second, with a
  * discarded first second; `rate == 0` runs unpaced batches of
  * `Spec.BatchEvents` events. Exactly-once runs snapshot every
  * `Spec.SnapshotMs` into a grid with one extra, compute-free member.
  */
final case class Spec(
    name: String,
    query: String,
    nodes: Int,
    threadsPerNode: Int,
    window: WindowDef,
    rate: Double,
    guarantee: Guarantee,
    sourceLp: Int,
    wmStrideMs: Long
) {
  def paced: Boolean        = rate > 0
  def threads: Int          = nodes * threadsPerNode
  def exactlyOnce: Boolean  = guarantee == Guarantee.ExactlyOnce
  def warmupSec: Double     = if (paced) 1.0 else 0.0
  def batchEvents: Long     = if (paced) 0L else Spec.BatchEvents
  def snapshotMs: Long      = if (exactlyOnce) Spec.SnapshotMs else 0L
  def extraGridMembers: Int = if (exactlyOnce) 1 else 0

  def settings: Map[String, Any] = Map(
    "query" -> query, "nodes" -> nodes, "threads_per_node" -> threadsPerNode,
    "window_ms" -> window.sizeMs, "slide_ms" -> window.slideMs,
    "rate_eps" -> rate, "guarantee" -> guarantee.toString, "snapshot_interval_ms" -> snapshotMs,
    "extra_grid_members" -> extraGridMembers, "source_parallelism" -> sourceLp,
    "watermark_stride_ms" -> wmStrideMs, "keys" -> Spec.Keys, "warmup_s" -> warmupSec,
    "batch_events" -> batchEvents)
}

object Spec {
  /** Person and auction keys of every workload. */
  val Keys        = 1000
  val BatchEvents = 12000000L
  val SnapshotMs  = 200L

  /** The workloads, sized to `nproc` cores: one JVM whose cooperative
    * threads never outnumber the cores. `q8-join-2node` is the one whose
    * data crosses flow-controlled links between members; it runs unpaced,
    * because paced its tail latency is bimodal from job to job.
    */
  def all(nproc: Int): Vector[Spec] = {
    val q5 = Spec("q5-slide10ms", "q5", 1, nproc, WindowDef(1000, 10), 200000, Guarantee.NoGuarantee, 1, 10)
    Vector(
      q5,
      q5.copy(name = "q5-exactly-once", guarantee = Guarantee.ExactlyOnce),
      q5.copy(name = "q5-unthrottled", window = WindowDef(2000, 500), rate = 0, sourceLp = 2, wmStrideMs = 100),
      Spec("q8-join-2node", "q8", 2, math.max(1, nproc / 2), WindowDef(2000, 500), 0, Guarantee.NoGuarantee, 1, 100)
    )
  }
}

/** Everything one run measured. `metrics` holds the end-to-end metrics, or
  * the per-layer ones in a traced run.
  */
final case class Outcome(
    metrics: Vector[(String, Double, String)],
    attempted: Long,
    failed: Long,
    diagnostics: Map[String, Any]
)

/** Shared state of a traced run: the decorated processors and the source
  * lag recorder, which records only while `measuring`.
  */
final class TraceCtx {
  @volatile var pacer: Option[Pacer] = None
  val processors        = mutable.ArrayBuffer.empty[TracedProcessor]
  val sourceLag         = new LogHistogram
  @volatile var measuring = false
  /** Index of the job being launched, recorded with its spans. */
  @volatile var job       = 0

  def snapshot(): Vector[VertexStats] = synchronized(processors.map(_.stats.copy()).toVector)
}

final class Bench(spec: Spec, seed: Long, seconds: Double, outDir: File, tag: String) {

  private val gen = new Generator(NexmarkConfig(Spec.Keys, Spec.Keys,
    eventsPerSecond = if (spec.paced) spec.rate else 100000.0, seed = seed))

  /** A run starts with a discarded paced job, or discarded unpaced batches,
    * that bring the JIT to steady state. A paced run then measures
    * `PacedJobs` fresh jobs of about 2 s each; an unpaced run measures
    * batches for the run's seconds. Last, `QuickSetups` small unpaced jobs
    * give `setup_s`, their median set-up time; run before the measured jobs,
    * they slowed the first of them.
    */
  private val QuickSetups    = 15
  private val SetupEvents    = 50000L
  private val WarmupJobSec   = 3.0
  private val PacedJobs      = math.max(1, math.round(seconds / 2.0).toInt)
  private val UnpacedWarmups = 4
  private val JobTimeoutMs = 60000L

  // ------------------------------------------------------------------ jobs

  private final class Sinks(events: Long) {
    val slots = Oracle.slots(gen, events, spec.window)
    val main  = new WindowTally(slots, spec.window.slideMs)
    val rest  = new WindowTally(slots, spec.window.slideMs)
  }

  private def pipeline(events: Long, pacer: Option[Pacer], main: SinkDef, rest: SinkDef): Pipeline = {
    val p  = new Pipeline
    val sp = Queries.StreamParams(gen, events, pacer, spec.wmStrideMs, spec.sourceLp)
    spec.query match {
      case "q5" => Queries.q5Measured(p, sp, spec.window, main, rest)
      case "q8" => Queries.q8(p, sp, spec.window, main)
    }
    p
  }

  /** A sink that tallies results and hands (slot, windowEnd, arrival) to
    * the latency probe.
    */
  private def tallySink(t: WindowTally, latency: (Int, Long, Long) => Unit): SinkDef =
    ForeachSinkDef((item, _) => {
      val now  = System.nanoTime()
      val slot = Oracle.tally(item, t)
      if (slot >= 0) latency(slot, (slot + 1L) * t.slideMs, now)
    }, 1)

  private val noLatency: (Int, Long, Long) => Unit = (_, _, _) => ()

  private final class Launch(val inst: JetInstance, val job: Job, val setupNs: Long, val planNs: Long,
      val submitNs: Long, val submittedAt: Long)

  /** Instance construction, `toDag` and `submit` — the timed set-up. The
    * DAG rewrap for tracing is not timed.
    */
  private def launch(p: Pipeline, jobName: String, guarantee: Guarantee, trace: Option[TraceCtx]): Launch = {
    val t0   = System.nanoTime()
    val inst = new JetInstance(spec.nodes, spec.threadsPerNode, extraGridMembers = spec.extraGridMembers)
    val t1   = System.nanoTime()
    val dag  = p.toDag()
    val t2   = System.nanoTime()
    val run  = trace.fold(dag)(ctx => Dags.rewrap(dag, v => decorate(v, ctx)))
    val t3   = System.nanoTime()
    val job  = inst.submit(run, JobConfig(jobName, guarantee, math.max(1L, spec.snapshotMs)))
    val t4   = System.nanoTime()
    new Launch(inst, job, (t2 - t0) + (t4 - t3), t2 - t1, (t1 - t0) + (t4 - t3), t3)
  }

  private def decorate(v: Vertex, ctx: TraceCtx): () => Processor = {
    val role = Dags.role(v)
    () => {
      val tp = new TracedProcessor(v.createProcessor(), ctx.job, new VertexStats(v.name, role),
        new SpanLog(2000, 50000L), if (role == "source") Some(ctx) else None)
      ctx.synchronized(ctx.processors += tp)
      tp
    }
  }

  /** Waits for the job; on failure or timeout saves `Job.debugDump` next to
    * the results and returns the error.
    */
  private def await(l: Launch, timeoutMs: Long): Option[Throwable] =
    try { l.job.awaitCompletion(timeoutMs); None }
    catch {
      case e: Throwable =>
        outDir.mkdirs()
        val w = new PrintWriter(new File(outDir, s"$tag.debugdump.txt"))
        try { w.println(e.toString); w.println(l.job.debugDump) } finally w.close()
        l.job.cancel()
        Some(e)
    }

  /** Set-up time of a small job of the same shape, run to completion. */
  private def quickSetup(i: Int): Launch = {
    val sink = ForeachSinkDef((_, _) => (), 1)
    val l    = launch(pipeline(SetupEvents, None, sink, sink), s"setup-$i", spec.guarantee, None)
    await(l, JobTimeoutMs)
    l.inst.shutdown()
    l
  }

  // ---------------------------------------------------------------- runs

  /** One measured job: its tallies, JVM counter growth and layer counters
    * over the measured phase, and its wall time from submit to completion.
    */
  private final class JobRun(val launch: Launch, val sinks: Sinks, val jvm: JvmCounters.Delta,
      val measuredNs: Long, val measuredEvents: Double, val wallNs: Long, val error: Option[Throwable],
      val stats: Vector[VertexStats], val link: Option[LinkSampler], val snapshots: Int,
      val snapshotBytes: Long, val replicaEntries: Long, val hist: LogHistogram)

  private def sleepUntil(nanos: Long): Unit = {
    var left = nanos - System.nanoTime()
    while (left > 0) { Thread.sleep(math.max(1L, left / 1000000L)); left = nanos - System.nanoTime() }
  }

  private def diffStats(after: Vector[VertexStats], before: Vector[VertexStats]): Vector[VertexStats] =
    after.zip(before).map { case (a, b) => a.minus(b) } ++ after.drop(before.size)

  private def committedSnapshotBytes(l: Launch, jobName: String): Long = {
    val committed = l.inst.grid.getMap[String, Long](s"snapmeta-$jobName").get("committed").getOrElse(0L)
    if (committed == 0L) 0L
    else l.inst.grid.getMap[Any, Any](s"snap-$jobName-${committed % 2}").entries
      .map(_._2.asInstanceOf[Array[Byte]].length.toLong).sum
  }

  private def replicaEntries(l: Launch): Long =
    l.inst.grid.members.map(id => l.inst.grid.node(id).replicaEntryCount).sum

  /** A paced job: the first `warmupSec` of event time are discarded, the
    * next `measureSec` measured. Latency runs from each window's due time
    * under the pacer's schedule to its arrival at the sink.
    */
  private def pacedJob(i: Int, measureSec: Double, hist: LogHistogram, trace: Option[TraceCtx]): JobRun = {
    val events      = jobEvents(measureSec)
    val pacer       = new Pacer(spec.rate)
    val sinks       = new Sinks(events)
    val own         = new LogHistogram
    val warmupEndMs = (spec.warmupSec * 1000).toLong
    val lastTs      = gen.tsOf(events - 1)
    val latency: (Int, Long, Long) => Unit = (slot, we, now) =>
      if (we >= warmupEndMs && we <= lastTs) {
        val ns = now - pacer.dueNanos(we, 0L)
        hist.recordNanos(ns)
        own.recordNanos(ns)
        sinks.main.noteLatency(slot, ns)
      }
    val name = s"${spec.name}-$i"
    trace.foreach { t => t.pacer = Some(pacer); t.job = i }
    val l     = launch(pipeline(events, Some(pacer), tallySink(sinks.main, latency), tallySink(sinks.rest, noLatency)),
      name, spec.guarantee, trace)
    val start = pacer.start()
    sleepUntil(start + (spec.warmupSec * 1e9).toLong)
    val c0 = JvmCounters.sample()
    val s0 = trace.map(_.snapshot())
    val k0 = l.job.snapshotsCompleted
    trace.foreach(_.measuring = true)
    val m0 = System.nanoTime()
    sleepUntil(start + ((spec.warmupSec + measureSec) * 1e9).toLong)
    val c1 = JvmCounters.sample()
    val s1 = trace.map(_.snapshot())
    val k1 = l.job.snapshotsCompleted
    val m1 = System.nanoTime()
    trace.foreach(_.measuring = false)
    val error = await(l, JobTimeoutMs)
    val done  = System.nanoTime()
    val run = new JobRun(l, sinks, JvmCounters.delta(c0, c1), m1 - m0, spec.rate * (m1 - m0) / 1e9,
      done - l.submittedAt, error, s1.zip(s0).map { case (b, a) => diffStats(b, a) }.getOrElse(Vector.empty),
      None, k1 - k0, committedSnapshotBytes(l, name), replicaEntries(l), own)
    l.inst.shutdown()
    run
  }

  /** An unpaced batch of `batchEvents` events, measured whole. A result's
    * latency is its time to result: from the start of the job's set-up to
    * its arrival at the sink.
    */
  private def unpacedJob(i: Int, hist: LogHistogram, trace: Option[TraceCtx]): JobRun = {
    val events = spec.batchEvents
    val sinks  = new Sinks(events)
    val own    = new LogHistogram
    trace.foreach { t => t.measuring = true; t.job = i }
    val s0 = trace.map(_.snapshot())
    val c0 = JvmCounters.sample()
    val t0 = System.nanoTime()
    val latency: (Int, Long, Long) => Unit = (slot, _, now) => {
      hist.recordNanos(now - t0)
      own.recordNanos(now - t0)
      sinks.main.noteLatency(slot, now - t0)
    }
    val l     = launch(pipeline(events, None, tallySink(sinks.main, latency), tallySink(sinks.rest, noLatency)),
      s"${spec.name}-$i", spec.guarantee, trace)
    val link  = trace.map { _ => val ls = new LinkSampler(l.job, new ReceiveWindow().minWindow); ls.active = true; ls }
    val error = await(l, JobTimeoutMs)
    val done  = System.nanoTime()
    val c1    = JvmCounters.sample()
    link.foreach(_.close())
    trace.foreach(_.measuring = false)
    val stats = trace.map(_.snapshot().drop(s0.get.size)).getOrElse(Vector.empty)
    val run = new JobRun(l, sinks, JvmCounters.delta(c0, c1), done - l.submittedAt, events.toDouble,
      done - l.submittedAt, error, stats, link, 0, 0L, replicaEntries(l), own)
    l.inst.shutdown()
    run
  }

  private def jobEvents(measureSec: Double): Long = (spec.rate * (spec.warmupSec + measureSec)).toLong

  // ------------------------------------------------------------ metrics

  private def ms(ns: Double): Double = ns / 1e6

  /** Runs the workload and returns its end-to-end metrics, or, when
    * `traced`, a traced run's per-layer metrics plus the tracing overhead
    * against an untraced run made first.
    */
  def run(traced: Boolean): Outcome =
    if (!traced) endToEnd(None)._1
    else {
      val (plain, _)       = endToEnd(None)
      val ctx              = new TraceCtx
      val (tracedRun, lay) = endToEnd(Some(ctx))
      val overhead =
        if (spec.paced) value(tracedRun, "latency_p50_ms") / value(plain, "latency_p50_ms") - 1
        else value(plain, "throughput_eps") / value(tracedRun, "throughput_eps") - 1
      val micro = microMetrics()
      dumpSpans(ctx)
      Outcome(lay ++ micro.map { case (n, r, u) => (n, r.median, u) } :+ (("trace.overhead_share", overhead, "ratio")),
        plain.attempted + tracedRun.attempted, plain.failed + tracedRun.failed,
        Map("untraced" -> plain.diagnostics, "traced" -> tracedRun.diagnostics,
          "micro_spread" -> micro.map { case (n, r, _) => n -> r.spread }.toMap,
          "untraced_metrics" -> plain.metrics.map(m => m._1 -> m._2).toMap,
          "traced_metrics" -> tracedRun.metrics.map(m => m._1 -> m._2).toMap))
    }

  private def value(o: Outcome, name: String): Double = o.metrics.find(_._1 == name).map(_._2).getOrElse(Double.NaN)

  /** Measures `seconds` spread over several fresh jobs and reports the
    * median of their percentiles: the job-to-job spread of one
    * configuration (thread placement, timer phase) is wider than the spread
    * within a job, so one long job would make a noisy run. Unpaced batches
    * repeat until `seconds` have passed.
    */
  private def endToEnd(trace: Option[TraceCtx]): (Outcome, Vector[(String, Double, String)]) = {
    val hist = new LogHistogram
    if (spec.paced) pacedJob(0, WarmupJobSec, new LogHistogram, None)
    else (1 to UnpacedWarmups).foreach(i => unpacedJob(-i, new LogHistogram, None))
    val jobs =
      if (spec.paced) (1 to PacedJobs).map(i => pacedJob(i, seconds.toDouble / PacedJobs, hist, trace)).toVector
      else {
        val start = System.nanoTime()
        val runs  = mutable.ArrayBuffer.empty[JobRun]
        while (runs.size < 2 || (System.nanoTime() - start < seconds * 1e9 && runs.size < 40))
          runs += unpacedJob(runs.size + 1, hist, trace)
        runs.toVector
      }
    val setupJobs = (1 to QuickSetups).map(quickSetup)
    val events            = if (spec.paced) jobEvents(seconds.toDouble / PacedJobs) else spec.batchEvents
    val (aggExp, restExp) = expected(events)
    val perJob            = aggExp.results + restExp.map(_.results).getOrElse(0L)
    val attempted         = perJob * jobs.size
    var failed = jobs.map { j =>
      if (j.error.isDefined) perJob
      else aggExp.failedIn(j.sinks.main) + restExp.map(_.failedIn(j.sinks.rest)).getOrElse(0L)
    }.sum
    val extra = mutable.LinkedHashMap.empty[String, Any]
    if (spec.guarantee != Guarantee.NoGuarantee) {
      // The same input without fault tolerance, unpaced: exactly-once output
      // must match it window for window.
      val off = new Sinks(events)
      val l = launch(pipeline(events, None, tallySink(off.main, noLatency), tallySink(off.rest, noLatency)),
        s"${spec.name}-ft-off", Guarantee.NoGuarantee, None)
      val err = await(l, JobTimeoutMs)
      l.inst.shutdown()
      extra("ft_off_failed") = err.isDefined
      extra("windows_differing_from_ft_off") = jobs.map(j => aggExp.windowsDiffering(j.sinks.main, off.main)).sum
      failed += (if (err.isDefined) attempted else jobs.map { j =>
        aggExp.failedBetween(j.sinks.main, off.main) + restExp.map(_.failedBetween(j.sinks.rest, off.rest)).getOrElse(0L)
      }.sum)
    }
    failed = math.min(failed, attempted)
    val jvm      = jobs.map(_.jvm).foldLeft(JvmCounters.Delta.zero)(_ + _)
    val measured = jobs.map(_.measuredEvents).sum
    val thr      = jobs.map(j => events / (j.wallNs / 1e9))
    val setups   = setupJobs.map(_.setupNs.toDouble).sorted
    // The median over jobs of each job's percentile, so that one job hit by
    // a stall of the host does not set the run's figure.
    def latencyMs(p: Double): Double = Stats.median(jobs.map(_.hist.percentileMs(p)).sorted)
    val metrics = Vector(
      ("latency_p50_ms", latencyMs(50), "ms"),
      ("latency_p99_ms", latencyMs(99), "ms"),
      ("throughput_eps", Stats.median(thr.sorted), "1/s"),
      ("alloc_bytes_per_event", jvm.allocBytes / measured, "B"),
      ("setup_s", Stats.median(setups) / 1e9, "s"))
    val diag = latencyDiagnostics(hist, jobs.map(_.sinks.main)) ++ extra ++ Map(
      "jobs" -> jobs.size, "events_per_job" -> events, "measured_events" -> measured,
      "results_expected" -> attempted, "failed_share" -> failed.toDouble / math.max(1L, attempted),
      "throughput_per_job_eps" -> thr,
      "latency_p50_per_job_ms" -> jobs.map(_.hist.percentileMs(50)),
      "latency_p99_per_job_ms" -> jobs.map(_.hist.percentileMs(99)), "setup_samples_s" -> setups.map(_ / 1e9),
      "errors" -> jobs.flatMap(_.error).map(_.toString), "gc_count" -> jvm.gcCount, "gc_ms" -> jvm.gcMs,
      "snapshots" -> jobs.map(_.snapshots).sum)
    val layers = trace.map { ctx =>
      layerMetrics(jobs.flatMap(_.stats), jvm, jobs.map(_.measuredNs).sum, jobs.flatMap(_.link),
        jobs.map(_.snapshots).sum, Stats.median(jobs.map(_.snapshotBytes.toDouble).sorted),
        Stats.median(jobs.map(_.replicaEntries.toDouble).sorted), setupJobs, ctx.sourceLag)
    }.getOrElse(Vector.empty)
    (Outcome(metrics, math.max(1L, attempted), failed, diag), layers)
  }

  private var expectedCache: Option[(Long, (Expected, Option[Expected]))] = None

  private def expected(events: Long): (Expected, Option[Expected]) =
    expectedCache.filter(_._1 == events).map(_._2).getOrElse {
      val e = spec.query match {
        case "q5" => val (a, m) = Oracle.q5(gen, events, spec.window); (a, Some(m))
        case "q8" => (Oracle.q8(gen, events, spec.window), None)
      }
      expectedCache = Some((events, e))
      e
    }

  /** p99.9, p99.99 and max are diagnostics: with one stall delaying every
    * key of a window, the independent samples are windows, not results, and
    * a run holds too few windows to resolve them.
    */
  private def latencyDiagnostics(h: LogHistogram, tallies: Seq[WindowTally]): Map[String, Any] = {
    val windows = tallies.map(t => (0 until t.slots).count(t.worst.get(_) > 0)).sum
    val pcts = Seq("p50" -> 50.0, "p99" -> 99.0, "p99.9" -> 99.9, "p99.99" -> 99.99, "max" -> 100.0)
    Map(
      "latency_samples" -> h.totalCount,
      "latency_windows" -> windows,
      "latency_ms" -> pcts.map { case (n, p) => n -> h.percentileMs(p) }.toMap,
      "windows_at_or_beyond" -> pcts.map { case (n, p) =>
        val floor = h.floorNanosAt(p)
        n -> tallies.map(_.windowsAtLeast(floor)).sum
      }.toMap)
  }

  // ------------------------------------------------------------- layers

  private def layerMetrics(
      stats: Vector[VertexStats],
      jvm: JvmCounters.Delta,
      wallNs: Long,
      links: Seq[LinkSampler],
      snapshots: Int,
      snapshotBytes: Double,
      replicaEntriesCount: Double,
      setups: Seq[Launch],
      lag: LogHistogram
  ): Vector[(String, Double, String)] = {
    val sampled  = links.filter(_.samples > 0)
    def of(role: String)                      = stats.filter(_.role == role)
    def sum(role: String, f: VertexStats => Long): Double = of(role).map(f).sum.toDouble
    val busyAll  = stats.map(_.busyNs).sum.toDouble
    val accItems = sum("accumulate", _.items)
    val slides   = sum("combine", _.slides)
    val snaps    = stats.map(_.snapshots).sum.toDouble
    val snapCount = math.max(1, snapshots)
    val refusalRoles = Vector("fused", "accumulate", "combine", "winend", "join", "sink")
    Vector(
      ("pipeline.plan_ms", ms(Stats.median(setups.map(_.planNs.toDouble).sorted)), "ms"),
      ("core.submit_ms", ms(Stats.median(setups.map(_.submitNs.toDouble).sorted)), "ms"),
      ("core.source.events", sum("source", _.sourceEvents), "count"),
      ("core.source.busy_ms", ms(sum("source", _.busyNs)), "ms"),
      ("core.source.lag_ms", if (spec.paced) lag.percentileMs(99) else 0.0, "ms"),
      ("core.scheduler.worker_cpu_ms", ms(jvm.coopCpuNs.toDouble), "ms"),
      ("core.scheduler.busy_share", busyAll / (spec.threads.toDouble * wallNs), "ratio")
    ) ++ refusalRoles.map(r => (s"core.exchange.refusals.$r", sum(r, _.refusals), "count")) ++ Vector(
      ("core.windowing.accumulate.items", accItems, "count"),
      ("core.windowing.accumulate.busy_ms", ms(sum("accumulate", _.busyNs)), "ms"),
      ("core.windowing.accumulate.ns_per_item", if (accItems > 0) sum("accumulate", _.processNs) / accItems else 0.0, "ns"),
      ("core.windowing.combine.slides", slides, "count"),
      ("core.windowing.combine.results", sum("combine", _.emitted), "count"),
      ("core.windowing.combine.busy_ms", ms(sum("combine", _.busyNs)), "ms"),
      ("core.windowing.combine.ms_per_slide", if (slides > 0) ms(sum("combine", _.wmNs)) / slides else 0.0, "ms"),
      ("core.windowing.winend.busy_ms", ms(sum("winend", _.busyNs)), "ms"),
      ("core.join.items", sum("join", _.items), "count"),
      ("core.join.busy_ms", ms(sum("join", _.busyNs)), "ms"),
      ("core.sink.busy_ms", ms(sum("sink", _.busyNs)), "ms"),
      ("core.link.window_min", sampled.map(_.windowMin.toDouble).minOption.getOrElse(0.0), "count"),
      ("core.link.unacked_max", sampled.map(_.unackedMax.toDouble).maxOption.getOrElse(0.0), "count"),
      ("core.link.collapsed_samples", sampled.map(_.collapsed.toDouble).sum, "count"),
      ("core.snapshot.count", snapshots.toDouble, "count"),
      ("core.snapshot.write_ms", if (snaps > 0) ms(stats.map(_.snapshotNs).sum.toDouble) / snapCount else 0.0, "ms"),
      ("core.snapshot.entries", if (snaps > 0) stats.map(_.snapshotEntries).sum.toDouble / snapCount else 0.0, "count"),
      ("imdg.snapshot_bytes", snapshotBytes, "B"),
      ("imdg.replica_entries", replicaEntriesCount, "count"),
      ("jvm.gc.count", jvm.gcCount.toDouble, "count"),
      ("jvm.gc.pause_ms", jvm.gcMs.toDouble, "ms"),
      ("jvm.alloc_bytes", jvm.allocBytes.toDouble, "B")
    )
  }

  /** Layer micro-measurements as (name, median, unit, spread). */
  private def microMetrics(): Vector[(String, Micro.Result, String)] = {
    val link = Micro.receiveWindow()
    Vector(
      ("core.exchange.spsc_handoff_ns", Micro.spscHandoffNs(), "ns"),
      ("core.exchange.outbox_partitioned_ns", Micro.outboxPartitionedNs(spec.threadsPerNode), "ns"),
      ("core.windowing.combine.ms_per_slide_1k", Micro.combineMsPerSlide(1000, 20), "ms"),
      ("core.windowing.combine.ms_per_slide_10k", Micro.combineMsPerSlide(10000, 10), "ms"),
      ("core.link.ack_ns", link.ackNs, "ns"),
      ("core.link.ack_collapses", link.collapses, "count")
    )
  }

  /** Writes the traced run's spans, one per line, next to the results. */
  private def dumpSpans(ctx: TraceCtx): Unit = {
    outDir.mkdirs()
    val procs = ctx.processors.toVector
    val t0    = procs.flatMap(p => (0 until p.spans.size).map(p.spans.start(_))).minOption.getOrElse(0L)
    val w     = new PrintWriter(new File(outDir, s"$tag.spans.tsv"))
    try {
      w.println("job\tvertex\tinstance\tkind\tstart_ns\tself_ns")
      procs.foreach { p =>
        var i = 0
        while (i < p.spans.size) {
          w.println(s"${p.job}\t${p.stats.vertex}\t${p.index}\t${SpanKind.names(p.spans.kind(i))}\t${p.spans.start(i) - t0}\t${p.spans.dur(i)}")
          i += 1
        }
        if (p.spans.dropped > 0) w.println(s"${p.job}\t${p.stats.vertex}\t${p.index}\tdropped\t0\t${p.spans.dropped}")
      }
    } finally w.close()
  }
}
