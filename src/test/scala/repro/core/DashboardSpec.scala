package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

class DashboardSpec extends SparkSpec {

  private lazy val readings = TestData.readings

  test("latestAirQuality: one row per sensor") {
    val latest = Dashboard.latestAirQuality(readings)
    assert(latest.count() == 14)
    assert(latest.select("deviceId").distinct().count() == 14)
  }

  test("latestAirQuality picks the max timestamp per sensor") {
    val latest = Dashboard.latestAirQuality(readings)
      .select(col("deviceId"), col("tsEpoch"))
    Oracle.assertEquivalent(latest,
      """SELECT deviceId, max(CAST(tsEpoch AS BIGINT)) AS tsEpoch
        |FROM readings GROUP BY deviceId""".stripMargin,
      "readings" -> readings.select("deviceId", "tsEpoch"))
  }

  test("latestAirQuality carries a valid CAQI band and name") {
    Dashboard.latestAirQuality(readings).collect().foreach { r =>
      val b = r.getAs[Int]("caqi")
      assert(b >= 1 && b <= 5)
      assert(r.getAs[String]("caqiName") == Aqi.bandName(b))
    }
  }

  test("trafficPanel: one row per link with a flow class") {
    val p = Dashboard.trafficPanel(TestData.traffic)
    assert(p.count() == 9)
    val classes = p.select("flowClass").distinct().collect().map(_.getString(0)).toSet
    assert(classes.subsetOf(Set("free", "moderate", "congested", "blocked")))
    val maxTs = TestData.traffic.groupBy("linkId").agg(max("tsEpoch")).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(p.collect().map(r => r.getAs[String]("linkId") -> r.getAs[Long]("tsEpoch")).toMap == maxTs)
  }

  test("trafficPanel classes respect the jam thresholds") {
    Dashboard.trafficPanel(TestData.traffic).collect().foreach { r =>
      val j = r.getAs[Double]("jamFactor"); val c = r.getAs[String]("flowClass")
      val exp = if (j < 2) "free" else if (j < 5) "moderate"
        else if (j < 8) "congested" else "blocked"
      assert(c == exp)
    }
  }

  test("citySummary reports both cities over the last hour") {
    val end = Schemas.EpochStart + Schemas.days(TestData.Sf) * 86400L
    val s = Dashboard.citySummary(readings, end).collect()
    assert(s.map(_.getAs[String]("city")).toSet == Set("Trondheim", "Vejle"))
    s.foreach { r =>
      assert(r.getAs[Long]("sensorsReporting") >= 1)
      assert(r.getAs[Double]("meanCo2Ppm") > 380)
      val w = r.getAs[Int]("worstCaqi")
      assert(w >= 1 && w <= 5)
    }
  }

  test("citySummary sensor counts match the fleet split") {
    val end = Schemas.EpochStart + Schemas.days(TestData.Sf) * 86400L
    val byCity = Dashboard.citySummary(readings, end).collect()
      .map(r => r.getAs[String]("city") -> r.getAs[Long]("sensorsReporting")).toMap
    assert(byCity("Trondheim") >= 10 && byCity("Trondheim") <= 12)
    assert(byCity("Vejle") == 2)
  }
}
