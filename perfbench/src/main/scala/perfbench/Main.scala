package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Runs one workload and prints its metrics; the last line of standard
  * output is the JSON result.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * With `--trace 0` the result holds the end-to-end metrics; with
  * `--trace 1` the per-layer metrics of a traced run, the layer
  * micro-measurements and the tracing overhead. Each run also writes a
  * record with its settings and environment to `<out>/<tag>.json`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val nproc    = Runtime.getRuntime.availableProcessors()
    val specs    = Spec.all(nproc)
    val workload = opt("workload")
    val spec     = specs.find(_.name == workload).getOrElse(usage(s"unknown workload $workload; one of ${specs.map(_.name).mkString(", ")}"))
    val seed     = opt("seed").toLong
    val seconds  = opt("seconds").toDouble
    val traced   = opt("trace") match { case "0" => false; case "1" => true; case t => usage(s"--trace $t") }
    val outDir   = new File(opt("out"))
    val tag      = s"$workload-seed$seed-trace${if (traced) 1 else 0}"

    val cpu0    = hostCpu()
    val outcome = new Bench(spec, seed, seconds, outDir, tag).run(traced)
    val cpu1    = hostCpu()
    val correct = outcome.failed == 0

    outcome.metrics.foreach { case (n, v, u) => println(f"$n%-45s $v%14.4f $u") }
    println(s"results expected ${outcome.attempted}, failed ${outcome.failed}")

    val steal = cpu0.zip(cpu1).map { case (a, b) =>
      val d = b.zip(a).map { case (y, x) => y - x }
      if (d.length > 7 && d.sum > 0) d(7).toDouble / d.sum else 0.0
    }.getOrElse(Double.NaN)
    println(f"host steal share $steal%.4f")

    val record = Map(
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "settings" -> spec.settings, "nproc" -> nproc,
      "host_steal_share" -> steal,
      "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toVector,
      "java_version" -> System.getProperty("java.version"),
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sourceHash", "unknown"),
      "correct" -> correct, "attempted" -> outcome.attempted, "failed" -> outcome.failed,
      "failed_share" -> outcome.failed.toDouble / outcome.attempted,
      "metrics" -> outcome.metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap,
      "diagnostics" -> outcome.diagnostics)
    outDir.mkdirs()
    val w = new PrintWriter(new File(outDir, s"$tag.json"))
    try w.println(Json(record)) finally w.close()

    println(Json(Map(
      "correct" -> correct, "attempted" -> outcome.attempted, "failed" -> outcome.failed,
      "metrics" -> outcome.metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap)))
    System.out.flush()
    sys.exit(0)
  }

  /** The host's cumulative CPU time counters from `/proc/stat` (user, nice,
    * system, idle, iowait, irq, softirq, steal, ...), where there is one.
    * Steal time is CPU time the hypervisor gave to other guests: a run with
    * much of it measured a loaded host, not the program.
    */
  private def hostCpu(): Option[Array[Long]] =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try src.getLines().find(_.startsWith("cpu ")).map(_.split("\\s+").drop(1).map(_.toLong))
      finally src.close()
    } catch { case _: java.io.IOException => None }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float               => apply(f.toDouble)
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: scala.collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]        => xs.iterator.map(apply).mkString("[", ", ", "]")
    case other                  => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
