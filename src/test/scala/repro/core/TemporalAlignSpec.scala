package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class TemporalAlignSpec extends SparkSpec {

  private def pts = {
    spark.range(500).select(
      concat(lit("d"), (col("id") % 3).cast("string")).as("deviceId"),
      (lit(1483228800L) + col("id") * 300 + (col("id") % 7) * 13).as("tsEpoch"),
      (rand(2) * 10 + 20).as("v"))
  }

  test("windowStart floors to the window") {
    import spark.implicits._
    val df = Seq(1483228800L, 1483228800L + 3599, 1483228800L + 3600).toDF("tsEpoch")
      .select(TemporalAlign.windowStart(col("tsEpoch"), 60).as("w"))
    assert(df.collect().map(_.getLong(0)).toSeq ==
      Seq(1483228800L, 1483228800L, 1483228800L + 3600))
  }

  test("resampleMean matches DuckDB") {
    val p = pts.cache()
    val got = TemporalAlign.resampleMean(p, Seq("deviceId"), Seq("v"), 60)
      .select(col("deviceId"), col("windowStartEpoch"), round(col("v"), 4).as("v"))
    Oracle.assertEquivalent(got,
      """SELECT deviceId,
        |       (CAST(tsEpoch AS BIGINT) // 3600) * 3600 AS windowStartEpoch,
        |       round(avg(CAST(v AS DOUBLE)), 4) AS v
        |FROM pts GROUP BY 1, 2""".stripMargin,
      "pts" -> p)
  }

  test("hourOfDay applies the timezone offset") {
    import spark.implicits._
    val df = Seq(1483228800L).toDF("w") // 2017-01-01 00:00 UTC
      .select(TemporalAlign.hourOfDay(col("w"), 1).as("h"))
    assert(df.head().getInt(0) == 1)
  }

  test("dayIdx anchors at the epoch start") {
    import spark.implicits._
    val df = Seq(Schemas.EpochStart, Schemas.EpochStart + 90000L).toDF("w")
      .select(TemporalAlign.dayIdx(col("w")).as("d"))
    assert(df.collect().map(_.getLong(0)).toSeq == Seq(0L, 1L))
  }
}
