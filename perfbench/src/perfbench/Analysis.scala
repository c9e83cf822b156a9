package perfbench

import java.io.File
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import scala.collection.mutable
import repro.Oracle
import repro.core.Pipeline
import repro.tables.{Table1Integration, Table3Battery, Table4Co2Traffic, Table5Calibration}

/** `analysis`: the paper's analyses (T1, T3, T4, T5) as requests from one
  * client in a closed loop, over readings cached in set-up. Neither
  * streaming nor the store runs. The set-up also makes one warm-up pass
  * over the four tables at a smaller scale factor, so the timed passes run
  * in a warm JVM without paying for a second full-size pass.
  */
final class Analysis(c: Ctx, golden: File, out: File) extends Workload {
  import Analysis._
  private val spark = c.spark
  private val requests = mutable.ArrayBuffer.empty[(String, Double)] // table, ms
  private val passes = mutable.ArrayBuffer.empty[Double]
  private val passCpu = mutable.ArrayBuffer.empty[Double]
  private val passThreads = mutable.ArrayBuffer.empty[Double]
  private val passThreadsRaw = mutable.ArrayBuffer.empty[Double]
  private var rendered = ""
  private var battery = Seq.empty[Table3Battery.NodeRow]

  private def table(name: String)(compute: => String): String = {
    val (r, s) = Stats.time(c.span(s"tables.$name")(compute))
    requests += ((name, s * 1000))
    r
  }

  private def pass(sf: Double): String = Seq(
    table("t1")(Table1Integration.compute(spark, sf, c.seed).rendered),
    table("t3") { val r = Table3Battery.compute(spark, sf, c.seed); battery = r.nodes; r.rendered },
    table("t4")(Table4Co2Traffic.compute(spark, sf, c.seed).rendered),
    table("t5")(Table5Calibration.compute(spark, sf, c.seed).rendered)).mkString("\n\n")

  def setUp(): Unit = {
    var rep = 0
    val wall = c.setUpReps(SetupReps)(c.span("core.readings_cache") {
      rep += 1
      if (rep < SetupReps) {
        val r = Pipeline.okReadings(spark, Sf, c.seed).cache(); r.count(); r.unpersist()
      } else Pipeline.okReadingsCached(spark, Sf, c.seed)
    })
    c.layer("core.readings_cache_s") = wall.last
    c.record("sf") = Sf
    c.span("setup.warm_up")(pass(WarmSf))
    requests.clear()
  }

  def measure(): Unit = {
    val t0 = System.nanoTime()
    // A pass starts only if it can end within the measured seconds; the
    // first always runs.
    while (passes.isEmpty || Stats.secondsSince(t0) + Stats.median(passes.toSeq) <= c.seconds) {
      val n = requests.size
      val cpu0 = Stats.cpuSeconds()
      val (r, threads, slowdown) = c.cpu.measure(c.attempt("analysis pass")(
        c.span("analysis.pass", req = passes.size + 1L)(pass(Sf))))
      r.foreach(rendered = _)
      passes += requests.drop(n).map(_._2).sum / 1000
      passCpu += Stats.cpuSeconds() - cpu0
      passThreads += threads / slowdown
      passThreadsRaw += threads
    }
    // One request is one pass over the four tables; with one pass a run,
    // p90 equals p50.
    val ms = passes.map(_ * 1000).toSeq
    c.e2e ++= Seq("pass_s" -> Stats.median(passes.toSeq), "pass_cpu_s" -> Stats.median(passCpu.toSeq),
      "thread_cpu_s" -> Stats.median(passThreads.toSeq),
      "thread_cpu_raw_s" -> Stats.median(passThreadsRaw.toSeq),
      "latency_p50_ms" -> Stats.median(ms), "latency_p90_ms" -> Stats.quantile(ms, 0.9))
    Seq("t1", "t3", "t4", "t5").foreach { name =>
      c.layer(s"tables.${name}_s") = Stats.median(requests.filter(_._1 == name).map(_._2 / 1000).toSeq)
    }
  }

  def verify(): Unit = {
    Files.write(new File(out, s"analysis-seed${c.seed}.txt").toPath, rendered.getBytes(UTF_8))
    if (c.seed == GoldenSeed)
      c.check(s"rendered T1/T3/T4/T5 at seed $GoldenSeed equal ${golden.getName}")(
        golden.isFile && new String(Files.readAllBytes(golden.toPath), UTF_8) == rendered)
    // At every seed: T3's battery levels against DuckDB over the readings.
    c.span("check.oracle_battery") {
      c.check("T3 battery min/max per node vs DuckDB") {
        val dir = c.dir("readings")
        Pipeline.okReadingsCached(spark, Sf, c.seed).select("deviceId", "tsEpoch", "batteryPct")
          .write.parquet(dir)
        import spark.implicits._
        Oracle.assertEquivalent(
          battery.map(n => (n.deviceId, n.minLevelPct, n.maxLevelPct))
            .toDF("deviceId", "minLevelPct", "maxLevelPct"),
          "SELECT deviceId, MIN(batteryPct) AS minLevelPct, MAX(batteryPct) AS maxLevelPct FROM " +
            "(SELECT *, row_number() OVER (PARTITION BY deviceId ORDER BY tsEpoch) AS rn " +
            s"FROM read_parquet('$dir/*.parquet')) WHERE rn > 1 GROUP BY deviceId")
        true
      }
    }
  }

  def report(): Unit = {
    println(f"metric analysis_s               ${c.e2e("pass_s")}%.3f s (${passes.size} passes, " +
      f"${c.e2e("pass_cpu_s")}%.1f CPU s, ${c.e2e("thread_cpu_s")}%.1f of them outside JIT and GC)")
    println("per-table latency (s): " + requests.map { case (t, ms) => f"$t ${ms / 1000}%.2f" }.mkString(", "))
  }
}

object Analysis {
  /** SF=0.02: 8 simulated days. */
  val Sf = 0.02
  /** The warm-up pass's scale factor: 3 simulated days, enough for one
    * OCO-2 overpass, which T1 needs.
    */
  val WarmSf = 0.0075
  val GoldenSeed = 7L
  val SetupReps = 3
}
