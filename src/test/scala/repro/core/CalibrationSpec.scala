package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class CalibrationSpec extends SparkSpec {

  /** y = 2x + 5 + small noise. */
  private def linearPairs = {
    spark.range(200).select(
      (col("id").cast("double") / 10).as("x"),
      (col("id").cast("double") / 10 * 2 + 5 + sin(col("id").cast("double")) * 0.01).as("y"))
  }

  test("fitOls recovers a known linear relationship") {
    val fit = Calibration.fitOls(linearPairs, "x", "y")
    assert(math.abs(fit.slope - 2.0) < 0.01, s"slope=${fit.slope}")
    assert(math.abs(fit.intercept - 5.0) < 0.05, s"intercept=${fit.intercept}")
    assert(fit.r2 > 0.999)
    assert(fit.rmse < 0.05)
    assert(fit.n == 200)
  }

  test("fitOls matches DuckDB regr_slope/regr_intercept/regr_r2") {
    val p = linearPairs.cache()
    val fit = Calibration.fitOls(p, "x", "y")
    import spark.implicits._
    val got = Seq((
      math.rint(fit.slope * 10000) / 10000,
      math.rint(fit.intercept * 10000) / 10000,
      math.rint(fit.r2 * 10000) / 10000
    )).toDF("slope", "intercept", "r2")
    Oracle.assertEquivalent(got,
      """SELECT round(regr_slope(CAST(y AS DOUBLE), CAST(x AS DOUBLE)), 4) AS slope,
        |       round(regr_intercept(CAST(y AS DOUBLE), CAST(x AS DOUBLE)), 4) AS intercept,
        |       round(regr_r2(CAST(y AS DOUBLE), CAST(x AS DOUBLE)), 4) AS r2
        |FROM pairs""".stripMargin,
      "pairs" -> p)
  }

  test("fitOls ignores null rows") {
    import spark.implicits._
    val withNulls = linearPairs.unionByName(
      Seq((Option.empty[Double], Option(1.0))).toDF("x", "y"))
    val fit = Calibration.fitOls(withNulls, "x", "y")
    assert(fit.n == 200)
  }

  test("fitOls requires at least two pairs") {
    import spark.implicits._
    intercept[IllegalArgumentException] {
      Calibration.fitOls(Seq((1.0, 2.0)).toDF("x", "y"), "x", "y")
    }
  }

  test("apply adds the calibrated column") {
    val fit = Calibration.fitOls(linearPairs, "x", "y")
    val out = Calibration.apply(linearPairs, "x", fit, "cal")
    val (rmse, bias) = Calibration.errorStats(out, "cal", "y")
    assert(rmse < 0.05 && math.abs(bias) < 0.01)
  }

  test("errorStats reports bias direction") {
    import spark.implicits._
    val pairs = Seq((10.0, 8.0), (12.0, 10.0)).toDF("est", "ref")
    val (rmse, bias) = Calibration.errorStats(pairs, "est", "ref")
    assert(bias == 2.0)
    assert(rmse == 2.0)
  }

  test("calibration reduces RMSE on a biased sensor") {
    // Sensor reads 1.3*truth + 8.
    val pairs = spark.range(300).select(
      (rand(3) * 50 + 10).as("truth"))
      .withColumn("raw", col("truth") * 1.3 + 8 + rand(4))
    val before = Calibration.errorStats(pairs, "raw", "truth")._1
    val fit = Calibration.fitOls(pairs, "raw", "truth")
    val after = Calibration.errorStats(
      Calibration.apply(pairs, "raw", fit, "cal"), "cal", "truth")._1
    assert(after < before / 3, s"before=$before after=$after")
  }

  test("trendCorrelation: identical trends give corr ~1") {
    import spark.implicits._
    val days = (0 until 10)
    val readings = days.flatMap(d => Seq(
      ("dev-a", Schemas.EpochStart + d * 86400L + 3600, 10.0 + d),
      ("dev-a", Schemas.EpochStart + d * 86400L + 7200, 12.0 + d)
    )).toDF("deviceId", "tsEpoch", "v")
    val ref = days.map(d =>
      (Schemas.EpochStart + d * 86400L, 20.0 + 2 * d)).toDF("tsEpoch", "ref")
    val out = Calibration.trendCorrelation(readings, "v", ref, "ref").head()
    assert(out.getAs[Double]("trendCorr") > 0.999)
    assert(out.getAs[Long]("nDays") == 10)
  }

  test("trendCorrelation: anti-trend gives corr ~-1") {
    import spark.implicits._
    val days = (0 until 10)
    val readings = days.map(d =>
      ("dev-a", Schemas.EpochStart + d * 86400L, 10.0 + d)).toDF("deviceId", "tsEpoch", "v")
    val ref = days.map(d =>
      (Schemas.EpochStart + d * 86400L, 50.0 - 3 * d)).toDF("tsEpoch", "ref")
    val out = Calibration.trendCorrelation(readings, "v", ref, "ref").head()
    assert(out.getAs[Double]("trendCorr") < -0.999)
  }
}
