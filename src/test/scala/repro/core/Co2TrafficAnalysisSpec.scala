package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.external.HereTraffic

class Co2TrafficAnalysisSpec extends SparkSpec {

  private lazy val aligned = Co2TrafficAnalysis.alignHourly(
    TestData.readings, TestData.traffic, HereTraffic.linksDF(spark)).cache()

  /** The aligned columns the statistics read, for DuckDB. */
  private def alignedTable = "al" -> aligned.select("deviceId", "windowStartEpoch",
    "co2Ppm", "no2Ugm3", "pm10Ugm3", "tempC", "humidityPct", "jamFactor")

  private def duckCorr(a: String, b: String) =
    s"corr(CAST($a AS DOUBLE), CAST($b AS DOUBLE))"

  test("alignHourly joins every sensor to a nearby link") {
    assert(aligned.select("deviceId").distinct().count() == 14)
    val maxDist = aligned.agg(max("linkDistKm")).head().getDouble(0)
    assert(maxDist <= 2.0)
  }

  test("alignHourly is hourly: one row per device-hour") {
    val dup = aligned.groupBy("deviceId", "windowStartEpoch").count()
      .where(col("count") > 1).count()
    assert(dup == 0)
  }

  test("NO2 correlates with traffic (traffic-driven pollutant)") {
    val c = aligned.agg(corr(col("no2Ugm3"), col("jamFactor"))).head().getDouble(0)
    assert(c > 0.35, s"corr(no2, jam)=$c")
  }

  test("CO2 shows no apparent correlation with traffic (the Fig 5 finding)") {
    val c = aligned.agg(corr(col("co2Ppm"), col("jamFactor"))).head().getDouble(0)
    assert(math.abs(c) < 0.3, s"corr(co2, jam)=$c")
  }

  test("CO2 correlates less with traffic than NO2 does") {
    val rows = Co2TrafficAnalysis.pollutantTrafficCorrelations(aligned,
      Seq("co2Ppm", "no2Ugm3")).collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(math.abs(rows("co2Ppm")) < rows("no2Ugm3"))
  }

  test("diurnal profiles differ: CO2 peaks pre-dawn, traffic at rush hour") {
    val Seq(co2Peak, jamPeak) =
      Co2TrafficAnalysis.diurnalPeakHours(aligned, Seq("co2Ppm", "jamFactor"))
    assert(co2Peak >= 2 && co2Peak <= 8, s"co2Peak=$co2Peak")
    assert((jamPeak >= 7 && jamPeak <= 9) || (jamPeak >= 15 && jamPeak <= 18),
      s"jamPeak=$jamPeak")
  }

  test("diurnalProfile returns 24 hours") {
    val p = Co2TrafficAnalysis.diurnalProfile(aligned, Seq("co2Ppm", "jamFactor"))
    assert(p.count() == 24)
  }

  test("laggedCorrelation computes one row per lag") {
    val lags = Co2TrafficAnalysis.laggedCorrelation(aligned, "co2Ppm", Seq(-1, 0, 1))
    assert(lags.count() == 3)
    lags.collect().foreach(r => assert(math.abs(r.getDouble(1)) <= 1.0))
  }

  test("no lag rescues the CO2-traffic correlation") {
    val lags = Co2TrafficAnalysis.laggedCorrelation(aligned, "co2Ppm",
      Seq(-3, -2, -1, 0, 1, 2, 3)).collect()
    lags.foreach(r => assert(math.abs(r.getDouble(1)) < 0.4,
      s"lag=${r.getInt(0)} corr=${r.getDouble(1)}"))
  }

  test("co2FactorMatrix covers the paper's candidate factors") {
    val m = Co2TrafficAnalysis.co2FactorMatrix(aligned)
    assert(m.collect().map(_.getString(0)).toSet ==
      Set("jamFactor", "tempC", "humidityPct", "hourOfDay"))
  }

  test("diurnalPeakHours equals the argmax of diurnalProfile") {
    val cols = Seq("co2Ppm", "no2Ugm3", "jamFactor")
    val profile = Co2TrafficAnalysis.diurnalProfile(aligned, cols)
    val argmax = cols.map(c => profile.orderBy(col(c).desc).head().getAs[Int]("hourOfDay"))
    assert(Co2TrafficAnalysis.diurnalPeakHours(aligned, cols) == argmax)
  }

  test("laggedCorrelation equals DuckDB's corr over a per-lag self-join, in the requested order") {
    val lags = Seq(2, -3, 0, 3, -1, 1, -2)
    val got = Co2TrafficAnalysis.laggedCorrelation(aligned, "co2Ppm", lags)
    assert(got.collect().map(_.getInt(0)).toSeq == lags)
    Oracle.assertEquivalent(got,
      s"""SELECT l.lagHours AS lagHours, ${duckCorr("a.co2Ppm", "b.jamFactor")} AS "corr"
         |FROM range(-3, 4) l(lagHours)
         |JOIN al b ON TRUE
         |JOIN al a ON a.deviceId = b.deviceId
         | AND CAST(a.windowStartEpoch AS BIGINT) =
         |     CAST(b.windowStartEpoch AS BIGINT) + l.lagHours * 3600
         |GROUP BY l.lagHours""".stripMargin,
      alignedTable)
  }

  test("a lag past the horizon keeps its row, with a null corr") {
    val rows = Co2TrafficAnalysis.laggedCorrelation(aligned, "co2Ppm", Seq(0, 24 * 365))
      .collect()
    assert(rows.map(_.getInt(0)).toSeq == Seq(0, 24 * 365))
    assert(!rows(0).isNullAt(1))
    assert(rows(1).isNullAt(1))
  }

  test("pollutantTrafficCorrelations equals DuckDB's corr") {
    val pollutants = Seq("co2Ppm", "no2Ugm3", "pm10Ugm3")
    Oracle.assertEquivalent(
      Co2TrafficAnalysis.pollutantTrafficCorrelations(aligned, pollutants),
      pollutants.map(p => s"SELECT '$p' AS pollutant, ${duckCorr(p, "jamFactor")} " +
        "AS corrWithJamFactor FROM al").mkString(" UNION ALL "),
      alignedTable)
  }

  test("co2FactorMatrix equals DuckDB's corr") {
    val hourOfDay = "((CAST(windowStartEpoch AS BIGINT) + 3600) % 86400) // 3600"
    Oracle.assertEquivalent(
      Co2TrafficAnalysis.co2FactorMatrix(aligned),
      Seq("jamFactor" -> "jamFactor", "tempC" -> "tempC", "humidityPct" -> "humidityPct",
        "hourOfDay" -> hourOfDay)
        .map { case (f, e) => s"SELECT '$f' AS factor, ${duckCorr("co2Ppm", e)} " +
          "AS corrWithCo2 FROM al" }.mkString(" UNION ALL "),
      alignedTable)
  }
}
