package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}

class BatteryAnalysisSpec extends SparkSpec {

  private lazy val readings = TestData.readings

  test("deltas computes per-packet differences with the previous packet") {
    val d = BatteryAnalysis.deltas(readings)
    assert(Seq("deltaPct", "gapMin", "hourOfDay", "sunSincePrev").forall(d.columns.contains))
    // Gaps follow the 5/10/20-minute cadence (modulo lost packets).
    val gaps = d.select("gapMin").distinct().collect().map(_.getDouble(0))
    assert(gaps.forall(g => g >= 5.0 && g % 5.0 == 0.0), gaps.take(10).mkString(","))
  }

  test("delta magnitudes are physically small per packet") {
    val d = BatteryAnalysis.deltas(readings)
    val maxAbs = d.agg(max(abs(col("deltaPct")))).head().getDouble(0)
    assert(maxAbs < 5.0, s"maxAbs=$maxAbs")
  }

  test("night packets lose charge, sunny packets can gain (January)") {
    val bySun = BatteryAnalysis.deltas(readings)
      .groupBy(col("sunSincePrev")).agg(avg(col("deltaPct")).as("mean"))
      .collect().map(r => r.getBoolean(0) -> r.getDouble(1)).toMap
    assert(bySun(false) < 0, s"night mean=${bySun(false)}")
    assert(bySun(true) > bySun(false), "sunlit intervals beat dark ones")
  }

  test("deltaByHour: no-sun rows dominate the January night hours") {
    val rows = BatteryAnalysis.deltaByHour(readings).collect()
    val midnightSun = rows.find(r => r.getAs[Int]("hourOfDay") == 0 &&
      r.getAs[Boolean]("sunSincePrev"))
    assert(midnightSun.isEmpty, "no sunlight at local midnight in January")
    val noonRows = rows.filter(_.getAs[Int]("hourOfDay") == 12)
    assert(noonRows.exists(_.getAs[Boolean]("sunSincePrev")))
  }

  test("depletionEstimate: night rate negative for every node") {
    val est = BatteryAnalysis.depletionEstimate(readings).collect()
    assert(est.length == 14)
    est.foreach { r =>
      assert(r.getAs[Double]("nightRatePctPerH") < 0,
        s"${r.getAs[String]("deviceId")} night rate not negative")
    }
  }

  test("depletionEstimate: days-to-empty is in a plausible band") {
    val est = BatteryAnalysis.depletionEstimate(readings)
      .where(col("daysToEmptyAtNightRate").isNotNull).collect()
    est.foreach { r =>
      val d = r.getAs[Double]("daysToEmptyAtNightRate")
      assert(d > 5 && d < 200, s"${r.getAs[String]("deviceId")} daysToEmpty=$d")
    }
  }

  test("sun rate exceeds night rate for every node (charging works)") {
    val est = BatteryAnalysis.depletionEstimate(readings).collect()
    est.foreach { r =>
      assert(r.getAs[Double]("sunRatePctPerH") > r.getAs[Double]("nightRatePctPerH"),
        r.getAs[String]("deviceId"))
    }
  }
}
