package repro.tsdb

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class TsdbStoreSpec extends SparkSpec {

  private def freshStore() =
    TsdbStore(Files.createTempDirectory("tsdb").toString + "/store")

  private def samplePoints(n: Int = 1000) = {
    spark.range(n).select(
      lit("air.co2").as("metric"),
      (lit(1483228800L) + col("id") * 300).as("tsEpoch"),
      (rand(1) * 100 + 400).as("value"),
      concat(lit("dev-"), (col("id") % 4).cast("string")).as("deviceId"),
      lit("Trondheim").as("city"))
  }

  test("put/query roundtrip preserves rows") {
    val store = freshStore()
    val pts = samplePoints().cache()
    store.put(pts)
    val back = store.query(spark, "air.co2", 0, Long.MaxValue)
    assert(back.count() == 1000)
    val sumBack = back.agg(sum("value")).head().getDouble(0)
    val sumIn = pts.agg(sum("value")).head().getDouble(0)
    assert(math.abs(sumBack - sumIn) < 1e-6)
  }

  test("put rejects malformed input") {
    val store = freshStore()
    import spark.implicits._
    intercept[IllegalArgumentException] {
      store.put(Seq((1, 2)).toDF("a", "b"))
    }
  }

  test("query filters by time range") {
    val store = freshStore()
    store.put(samplePoints())
    val n = store.query(spark, "air.co2", 1483228800L, 1483228800L + 100 * 300).count()
    assert(n == 100)
  }

  test("query filters by tag") {
    val store = freshStore()
    store.put(samplePoints())
    val n = store.query(spark, "air.co2", 0, Long.MaxValue,
      Map("deviceId" -> "dev-1")).count()
    assert(n == 250)
  }

  test("query on missing metric returns empty") {
    val store = freshStore()
    store.put(samplePoints())
    assert(store.query(spark, "air.nope", 0, Long.MaxValue).count() == 0)
  }

  test("append accumulates across puts") {
    val store = freshStore()
    store.put(samplePoints(100))
    store.put(samplePoints(100).withColumn("tsEpoch", col("tsEpoch") + 1))
    assert(store.query(spark, "air.co2", 0, Long.MaxValue).count() == 200)
  }

  test("downsample avg matches DuckDB") {
    val store = freshStore()
    val pts = samplePoints().cache()
    store.put(pts)
    val got = store.downsample(spark, "air.co2", 0, Long.MaxValue, 60, "avg")
      .select(col("deviceId"), col("windowStartEpoch"),
        round(col("value"), 4).as("value"))
    Oracle.assertEquivalent(got,
      """SELECT deviceId,
        |       (CAST(tsEpoch AS BIGINT) // 3600) * 3600 AS windowStartEpoch,
        |       round(avg(CAST(value AS DOUBLE)), 4) AS value
        |FROM pts GROUP BY 1, 2""".stripMargin,
      "pts" -> pts)
  }

  test("downsample min/max/sum/count agree with direct aggregation") {
    val store = freshStore()
    store.put(samplePoints())
    val cnt = store.downsample(spark, "air.co2", 0, Long.MaxValue, 1440, "count")
    val total = cnt.agg(sum("value")).head().getDouble(0)
    assert(total == 1000.0)
    val mx = store.downsample(spark, "air.co2", 0, Long.MaxValue, 1440, "max")
      .agg(max("value")).head().getDouble(0)
    val direct = store.query(spark, "air.co2", 0, Long.MaxValue)
      .agg(max("value")).head().getDouble(0)
    assert(mx == direct)
  }

  test("downsample rejects unknown aggregations") {
    val store = freshStore()
    store.put(samplePoints(10))
    intercept[IllegalArgumentException] {
      store.downsample(spark, "air.co2", 0, Long.MaxValue, 60, "median").collect()
    }
  }

  test("latest returns one row per device with the max timestamp") {
    val store = freshStore()
    val pts = samplePoints().cache()
    store.put(pts)
    val latest = store.latest(spark, "air.co2")
    assert(latest.count() == 4)
    // Oracle tables are VARCHAR, hence the casts.
    Oracle.assertEquivalent(latest,
      """SELECT 'air.co2' AS metric, deviceId, city, tsEpoch, CAST(value AS DOUBLE) AS value
        |FROM (SELECT *, row_number() OVER (PARTITION BY deviceId
        |                                   ORDER BY CAST(tsEpoch AS BIGINT) DESC) AS rn
        |      FROM pts) WHERE rn = 1""".stripMargin,
      "pts" -> pts)
  }

  test("metrics lists stored metrics sorted") {
    val store = freshStore()
    store.put(samplePoints(10))
    store.put(samplePoints(10).withColumn("metric", lit("air.no2")))
    assert(store.metrics(spark) == Seq("air.co2", "air.no2"))
  }

  test("meltReadings produces one point per metric column") {
    import spark.implicits._
    val readings = Seq(
      ("d1", "Trondheim", 1483228800L, 412.0, 21.0),
      ("d2", "Vejle", 1483229100L, 430.0, 25.0)
    ).toDF("deviceId", "city", "tsEpoch", "co2Ppm", "no2Ugm3")
    val melted = TsdbStore.meltReadings(readings,
      Map("co2Ppm" -> "air.co2", "no2Ugm3" -> "air.no2"))
    assert(melted.count() == 4)
    assert(melted.where(col("metric") === "air.co2" && col("deviceId") === "d1")
      .head().getAs[Double]("value") == 412.0)
  }

  private def wideReadings() = {
    import spark.implicits._
    Seq(
      ("d1", "Trondheim", 1483228800L, 412.0, 21.0, 14.0, 7.5, -3.2, 81.0, 1002.0, 95.0),
      ("d2", "Vejle", 1483229100L, 430.0, Double.NaN, 18.5, Double.NaN, 1.1, 77.5, 1011.0, 64.0),
      ("d1", "Trondheim", 1483315200L, 405.0, 19.0, Double.NaN, 6.0, -1.0, 90.0, 998.5, 94.5)
    ).toDF("deviceId", "city", "tsEpoch", "co2Ppm", "no2Ugm3", "pm10Ugm3", "pm25Ugm3",
      "tempC", "humidityPct", "pressureHpa", "batteryPct")
  }

  test("meltReadings returns PointColumns and equals per-metric selects, NaN included") {
    val readings = wideReadings()
    val melted = TsdbStore.meltReadings(readings, TsdbStore.StandardMetrics)
    assert(melted.columns.toSeq == TsdbStore.PointColumns)
    val unioned = TsdbStore.StandardMetrics.toSeq.map { case (c, metric) =>
      readings.select(lit(metric).as("metric"), col("tsEpoch"),
        col(c).cast("double").as("value"), col("deviceId"), col("city"))
    }.reduce(_ union _)
    assert(melted.count() == 3 * 8)
    assert(melted.where(isnan(col("value"))).count() == 3)
    assert(melted.exceptAll(unioned).count() == 0)
    assert(unioned.exceptAll(melted).count() == 0)
  }

  test("one put writes one Parquet file per (metric, date) partition") {
    val store = freshStore()
    // 1000 points at 5-min spacing span 4 days; unclustered, every input
    // partition would write its own file for each day.
    store.put(TsdbStore.meltReadings(
      samplePoints().withColumnRenamed("value", "co2Ppm").withColumn("no2Ugm3", lit(20.0)),
      Map("co2Ppm" -> "air.co2", "no2Ugm3" -> "air.no2")))
    val dirs = Files.walk(java.nio.file.Paths.get(store.path)).toArray
      .map(_.asInstanceOf[java.nio.file.Path])
      .filter(_.getFileName.toString.endsWith(".parquet"))
      .groupBy(_.getParent)
    val partitions = spark.read.parquet(store.path).select("metric", "date").distinct().count()
    assert(dirs.size == partitions && partitions >= 2 * 4, s"partitions: ${dirs.keys.mkString(", ")}")
    dirs.foreach { case (dir, files) => assert(files.length == 1, s"$dir: ${files.length} files") }
  }

  test("standard metric mapping covers all measured quantities") {
    assert(TsdbStore.StandardMetrics.size == 8)
    assert(TsdbStore.StandardMetrics.values.toSet.size == 8)
  }
}
