package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession

/** JSON for the result, run-record and span lines. Doubles that are not
  * numbers (a figure a run could not take) are written as null.
  */
object Json {
  private val mapper = JsonMapper.builder().addModule(DefaultScalaModule).build()
  def apply(v: Any): String = mapper.writeValueAsString(clean(v))
  private def clean(v: Any): Any = v match {
    case d: Double if d.isNaN || d.isInfinite => None
    case m: collection.Map[_, _] => m.map { case (k, x) => k.toString -> clean(x) }
    case s: Iterable[_] => s.map(clean)
    case x => x
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  /** Linear-interpolated quantile (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted.toIndexedSeq
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  /** CPU seconds of every thread of this JVM so far, as the OS counts them. */
  def cpuSeconds(): Double = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  /** Seconds the JIT compilers and the garbage collectors have run so far,
    * as the JVM accounts them (compiler threads summed; GC as pause time).
    */
  def jitAndGcSeconds(): (Double, Double) = {
    val jit = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3
    (jit, gc)
  }
  /** Jiffies of all CPUs from /proc/stat: (total, stolen by the hypervisor). */
  def cpuJiffies(): (Long, Long) = {
    val src = scala.io.Source.fromFile("/proc/stat")
    try {
      val f = src.getLines().next().split("\\s+").drop(1).map(_.toLong)
      (f.sum, if (f.length > 7) f(7) else 0L)
    } finally src.close()
  }
  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, secondsSince(t0))
  }
}

/** State of one benchmark run: the session, the tracer, what was measured
  * and what the correctness gate found.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val cpu: CpuMeter,
                val heap: HeapPeak, val seed: Long, val seconds: Double, val work: File, val nproc: Int) {
  val e2e = mutable.LinkedHashMap.empty[String, Double]
  val layer = mutable.LinkedHashMap.empty[String, Double]
  val record = mutable.LinkedHashMap.empty[String, Any]
  val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0L
  private var failed = 0L

  def traced: Boolean = tracer.enabled
  def span[A](name: String, req: Long = -1L)(body: => A): A = tracer.span(name, req)(body)
  def dir(name: String): String = new File(work, name).getPath

  /** Counts `n` attempted operations of which `bad` failed. */
  def count(what: String, n: Long, bad: Long, detail: => String = ""): Unit = synchronized {
    attempted += n
    failed += bad
    if (bad > 0) failures += s"$what: $bad of $n failed${if (detail.isEmpty) "" else " — " + detail}"
  }

  /** One checked condition; an exception while checking counts as a failure. */
  def check(what: String)(ok: => Boolean): Unit = {
    val r = try { if (ok) None else Some("") } catch { case NonFatal(e) => Some(e.getMessage) }
    count(what, 1, r.size.toLong, r.getOrElse(""))
  }

  /** Runs one operation; a throw counts as a failed operation, not an abort. */
  def attempt[A](what: String)(op: => A): Option[A] =
    try { val r = op; count(what, 1, 0); Some(r) }
    catch { case NonFatal(e) => count(what, 1, 1, String.valueOf(e.getMessage).take(300)); None }

  /** Runs the set-up `n` times. `setup_s` is the median thread-CPU
    * seconds, divided by the host's slowdown (see [[CpuMeter]]), of the
    * repetitions after the first, which runs in a cold JVM. Unlike wall
    * time, thread CPU leaves out the time the hypervisor steals. Their
    * median wall seconds go to `setup_wall_s`. Returns the wall seconds of
    * every repetition.
    */
  def setUpReps(n: Int)(body: => Unit): Seq[Double] = {
    val reps = (1 to n).map { _ =>
      val ((_, wall), cpuS, slowdown) = cpu.measure(Stats.time(body))
      (cpuS / slowdown, wall)
    }
    val warm = if (reps.size > 1) reps.tail else reps
    e2e("setup_s") = Stats.median(warm.map(_._1))
    layer("setup_wall_s") = Stats.median(warm.map(_._2))
    reps.map(_._2)
  }

  def attemptedOps: Long = synchronized(attempted)
  def failedOps: Long = synchronized(failed)
}

/** Entry point of the benchmark JVM; `perfbench/run.py` launches it.
  *
  *   --workload live|analysis  --seed N  --seconds S  --trace 0|1
  *   --work DIR (temporary data)  --out DIR (spans, renderings)
  *   [--golden FILE]  [--baseline 1]
  *
  * Prints human-readable metric lines, then `RESULT {json}` as the last line.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = args("workload")
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val trace = args.getOrElse("trace", "0") == "1"
    val work = new File(args("work"))
    val out = new File(args("out"))
    val baseline = args.get("baseline").contains("1")
    require(work.isDirectory || work.mkdirs(), s"cannot create $work")
    require(out.isDirectory || out.mkdirs(), s"cannot create $out")

    val tracer = new Tracer(trace)
    val jvmStartNs = System.nanoTime() -
      (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) * 1000000L
    val counters = new SparkCounters
    val cpu = new CpuMeter
    val heap = new HeapPeak
    val streams = new StreamCollector
    var ctx: Ctx = null
    var w: Workload = null
    var timedStart = 0L
    var timedWall = 0.0
    var c0, c1 = Seq.empty[Long]
    // Root span from JVM start, so self times add up to the traced wall time.
    val rootId = tracer.root("run", jvmStartNs) {
      val spark = tracer.span("spark.session")(JobSession.build(s"perfbench-$workload"))
      ctx = new Ctx(spark, tracer, cpu, heap, seed, seconds, work, spark.sparkContext.defaultParallelism)
      ctx.layer("spark.session_s") = Stats.secondsSince(jvmStartNs)
      if (trace) {
        spark.sparkContext.addSparkListener(counters)
        spark.streams.addListener(streams)
      }
      w = workload match {
        case "live" => new Live(ctx, streams, baseline)
        case "analysis" => new Analysis(ctx, new File(args("golden")), out)
        case other => throw new IllegalArgumentException(s"unknown workload $other")
      }
      tracer.span("phase.setup")(w.setUp())
      tracer.span("bench.heap_gc")(heap.open())
      c0 = counters.snapshot
      val (j0, s0) = Stats.cpuJiffies()
      val cpu0 = Stats.cpuSeconds()
      val (jit0, gc0) = Stats.jitAndGcSeconds()
      val timedFrom = cpu.mark()
      timedStart = System.nanoTime()
      tracer.span("phase.timed")(w.measure())
      timedWall = Stats.secondsSince(timedStart)
      ctx.e2e("host.slowdown") = cpu.since(timedFrom)._2
      val (j1, s1) = Stats.cpuJiffies()
      ctx.record("timed_cpu_s") = Stats.cpuSeconds() - cpu0
      val (jit1, gc1) = Stats.jitAndGcSeconds()
      ctx.record ++= Seq("timed_jit_s" -> (jit1 - jit0), "timed_gc_s" -> (gc1 - gc0))
      ctx.e2e("heap_peak_mb") = tracer.span("bench.heap_gc")(heap.closeMb())
      // Share of the machine's CPU time the hypervisor took while timing.
      ctx.record("host_steal_share") = (s1 - s0).toDouble / math.max(1L, j1 - j0)
      c1 = counters.snapshot
      val verifyS = Stats.time(tracer.span("phase.verify")(w.verify()))._2
      ctx.record("verify_wall_s") = verifyS
    }
    val spark = ctx.spark
    val nproc = ctx.nproc

    if (trace) {
      val Seq(jobs, tasks, taskMs, gcMs, shuffle) = c1.zip(c0).map { case (a, b) => (a - b).toDouble }
      ctx.layer ++= Seq("spark.jobs" -> jobs, "spark.tasks" -> tasks,
        "spark.task_s" -> taskMs / 1000, "spark.gc_s" -> gcMs / 1000,
        "spark.shuffle_bytes" -> shuffle,
        "spark.busy_ratio" -> taskMs / 1000 / (timedWall * nproc))
      // The end-to-end figures under tracing; minus the untraced medians,
      // they are the tracing overhead.
      ctx.layer("trace.thread_cpu_s") = ctx.e2e.getOrElse("thread_cpu_s", Double.NaN)
      val main = tracer.tree(rootId)
      val self = tracer.selfSeconds(main)
      val isLayer = (n: String) => Workload.Layers.exists(l => n.startsWith(l + "."))
      val layers = self.filter { case (n, _) => isLayer(n) }
      def total(prefixes: String*) =
        self.filter { case (n, _) => prefixes.exists(n.startsWith) }.values.sum
      // The benchmark's own work (correctness checks, heap sampling) and
      // time spent waiting on purpose are reported apart from the layers.
      val bench = total("check.", "bench.")
      val idle = total("idle.")
      val wall = main.head.seconds
      ctx.layer ++= Seq("trace.wall_s" -> wall, "trace.layers_s" -> layers.values.sum,
        "trace.bench_s" -> bench, "trace.idle_s" -> idle,
        "trace.unattributed_s" -> (wall - layers.values.sum - bench - idle))
      // Per-call times of the layer parts the workloads call on their own.
      tracer.all.filter(s => isLayer(s.name)).groupBy(_.name).foreach { case (n, ss) =>
        ctx.layer.getOrElseUpdate(n + "_s", Stats.median(ss.map(_.seconds)))
      }
      ctx.record("layer_self_s") = ListMap(layers.toSeq.sortBy(_._1): _*)
      // Spans of other threads (the live generator) run beside the main tree.
      val mainIds = main.map(_.id).toSet
      val others = tracer.all.filterNot(s => mainIds(s.id))
      ctx.record("concurrent_self_s") =
        ListMap(tracer.selfSeconds(others).toSeq.sortBy(_._1): _*)
      tracer.write(new File(out, "spans.jsonl"))
    }
    // Wall-clock figures move with the host's CPU steal, and the heap peak
    // with the moments the collector happens to run, so they are reported
    // beside the layers rather than gated.
    Seq("pass_s", "pass_cpu_s", "latency_p50_ms", "latency_p90_ms", "heap_peak_mb",
      "thread_cpu_raw_s", "host.slowdown")
      .foreach(k => ctx.e2e.get(k).foreach(ctx.layer(k) = _))
    ctx.layer("fail_ratio") = ctx.failedOps.toDouble / math.max(1L, ctx.attemptedOps)

    ctx.record ++= Seq(
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "nproc" -> nproc, "master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> System.getProperty("java.version"),
      "spark_conf" -> ListMap(spark.conf.getAll.toSeq.sortBy(_._1)
        .filterNot { case (k, _) => Workload.VolatileConf.exists(k.startsWith) }: _*),
      "setup_to_timed_s" -> (timedStart - jvmStartNs) / 1e9,
      "timed_wall_s" -> timedWall,
      "failures" -> ctx.failures.toList)

    ctx.e2e.foreach { case (k, v) => println(f"metric $k%-24s $v%.6f") }
    w.report()
    println(f"metric fail_ratio               ${ctx.layer("fail_ratio")}%.6f (${ctx.failedOps} of ${ctx.attemptedOps})")
    ctx.failures.foreach(f => println(s"FAILED $f"))
    println("RESULT " + Json(ListMap(
      "correct" -> (ctx.failedOps == 0), "attempted" -> ctx.attemptedOps,
      "failed" -> ctx.failedOps, "e2e" -> ctx.e2e, "layer" -> ctx.layer,
      "record" -> ctx.record)))
    cpu.close()
    spark.stop()
  }
}

/** One benchmark workload: set-up (untimed), the timed phase, the
  * correctness gate, and its own human-readable lines.
  */
trait Workload {
  def setUp(): Unit
  def measure(): Unit
  def verify(): Unit
  def report(): Unit
}

object Workload {
  /** Span-name prefixes that count as program layers in the self-time sum. */
  val Layers: Seq[String] = Seq("spark", "iot", "lorawan", "mqtt", "core", "tsdb", "twin", "tables")
  /** Confs that differ on every run without being settings. */
  val VolatileConf: Seq[String] = Seq("spark.app.id", "spark.app.startTime", "spark.driver.port",
    "spark.app.submitTime", "spark.sql.warehouse.dir", "spark.local.dir")
}
