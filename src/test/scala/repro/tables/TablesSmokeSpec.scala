package repro.tables

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.SparkSpec

/** Fast smoke of the table harnesses at a tiny scale factor — the real
  * numbers are produced by the bench suites at SF=0.1.
  */
class TablesSmokeSpec extends SparkSpec {

  private val sf = 0.005 // 2 days

  test("Table 2 harness: full pipeline run produces both cities") {
    val res = Table2Deployment.compute(spark, sf)
    assert(res.rows.map(_.city).sorted == Seq("Trondheim", "Vejle"))
    assert(res.packetsOnBridge > res.readingsStored, "duplicates were deduped")
    assert(res.storedMetrics.size == 8)
    assert(res.rows.map(_.sensors).sum == 14)
    assert(res.rendered.contains("Deployment"))
  }

  test("Table 7 harness: streaming and batch parity at small scale") {
    val res = Table7Throughput.compute(spark, sf)
    assert(res.parity, s"stream=${res.storedPoints} batch=${res.batchPoints} " +
      s"differing=${res.mismatchedPoints}")
    assert(res.storedPoints > 0)
    assert(res.streamRowsPerSec > 0 && res.batchRowsPerSec > 0)
  }

  test("Table 6 harness: fault injection detects and classifies") {
    val res = Table6Monitoring.compute(spark)
    assert(res.sensorFailureDetectMin.isDefined, "dead sensor missed")
    assert(res.sensorFailureClass.contains("sensor-failure"))
    assert(res.gatewayOutageDetectMin.isDefined, "gateway outage missed")
    assert(res.exclusiveSensorClass.contains("gateway-outage"))
    assert(res.watchdogHealthyAtEnd)
  }

  test("T1, T3, T4 and T5 at SF=0.02, seed 7 render the golden rows") {
    val (sf, seed) = (0.02, 7L)
    // Same tables, order and separator as the benchmark's `analysis` pass.
    val rendered = Seq(
      Table1Integration.compute(spark, sf, seed).rendered,
      Table3Battery.compute(spark, sf, seed).rendered,
      Table4Co2Traffic.compute(spark, sf, seed).rendered,
      Table5Calibration.compute(spark, sf, seed).rendered).mkString("\n\n")
    val golden = new String(
      Files.readAllBytes(Paths.get("perfbench/golden/analysis-seed7.txt")), UTF_8)
    assert(rendered == golden)
  }

  test("TableFmt renders aligned tables") {
    val s = TableFmt.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    assert(s.contains("== T =="))
    assert(s.linesIterator.size == 5)
  }
}
