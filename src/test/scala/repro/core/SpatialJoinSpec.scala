package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class SpatialJoinSpec extends SparkSpec {

  private def sensors = {
    import spark.implicits._
    Seq(
      ("s1", 63.4305, 10.3951),
      ("s2", 63.4180, 10.3950),
      ("s3", 55.7090, 9.5357)
    ).toDF("deviceId", "lat", "lon")
  }

  private def stations = {
    import spark.implicits._
    Seq(
      ("st-trd", 63.4300, 10.3960),
      ("st-vjl", 55.7110, 9.5300)
    ).toDF("stationId", "lat", "lon")
  }

  test("nearest attaches the closest right row") {
    val out = SpatialJoin.nearest(sensors, "deviceId", stations, "stationId", 1000.0)
      .orderBy("deviceId").collect()
    assert(out.map(r => r.getAs[String]("deviceId") -> r.getAs[String]("stationId")).toSeq ==
      Seq("s1" -> "st-trd", "s2" -> "st-trd", "s3" -> "st-vjl"))
  }

  test("nearest yields one row per left key") {
    val out = SpatialJoin.nearest(sensors, "deviceId", stations, "stationId", 1000.0)
    assert(out.count() == 3)
    assert(out.select("deviceId").distinct().count() == 3)
  }

  test("nearest respects maxKm") {
    val out = SpatialJoin.nearest(sensors, "deviceId", stations, "stationId", 0.2)
    // only s1 is within 200 m of a station
    assert(out.collect().map(_.getAs[String]("deviceId")).toSeq == Seq("s1"))
  }

  test("nearest distance agrees with the scala haversine") {
    val row = SpatialJoin.nearest(sensors, "deviceId", stations, "stationId", 1000.0)
      .where(col("deviceId") === "s1").head()
    val exp = GeoFunctions.haversineKm(63.4305, 10.3951, 63.4300, 10.3960)
    assert(math.abs(row.getAs[Double]("distKm") - exp) < 1e-9)
  }

  test("nearest matches a DuckDB argmin formulation") {
    val l = sensors.cache(); val r = stations.cache()
    val got = SpatialJoin.nearest(l, "deviceId", r, "stationId", 1000.0)
      .select(col("deviceId"), col("stationId"))
    // DuckDB: full cross join, rank by haversine distance computed inline.
    Oracle.assertEquivalent(got,
      """WITH d AS (
        |  SELECT s.deviceId, t.stationId,
        |    2 * 6371.0088 * asin(least(1.0, sqrt(
        |      pow(sin(radians(CAST(t.lat AS DOUBLE) - CAST(s.lat AS DOUBLE)) / 2), 2) +
        |      cos(radians(CAST(s.lat AS DOUBLE))) * cos(radians(CAST(t.lat AS DOUBLE))) *
        |      pow(sin(radians(CAST(t.lon AS DOUBLE) - CAST(s.lon AS DOUBLE)) / 2), 2)))) AS dist
        |  FROM sensors s CROSS JOIN stations t)
        |SELECT deviceId, stationId FROM (
        |  SELECT deviceId, stationId,
        |         row_number() OVER (PARTITION BY deviceId ORDER BY dist, stationId) AS rn
        |  FROM d) WHERE rn = 1""".stripMargin,
      "sensors" -> l, "stations" -> r)
  }

  test("idwInterpolate: target on a sample gets ~that sample's value") {
    import spark.implicits._
    val samples = Seq(
      (63.4305, 10.3951, 100.0),
      (63.5000, 10.5000, 10.0)
    ).toDF("lat", "lon", "v")
    val targets = Seq(("t1", 63.4305, 10.3951)).toDF("pointKey", "lat", "lon")
    val out = SpatialJoin.idwInterpolate(targets, "pointKey", samples, Seq("v"), 50.0)
    val v = out.head().getAs[Double]("v")
    assert(v > 95.0, s"v=$v")
  }

  test("idwInterpolate: midpoint blends both samples") {
    import spark.implicits._
    val samples = Seq(
      (63.40, 10.40, 100.0),
      (63.44, 10.40, 0.0)
    ).toDF("lat", "lon", "v")
    val targets = Seq(("mid", 63.42, 10.40)).toDF("pointKey", "lat", "lon")
    val v = SpatialJoin.idwInterpolate(targets, "pointKey", samples, Seq("v"), 50.0)
      .head().getAs[Double]("v")
    assert(v > 40 && v < 60, s"v=$v")
  }

  test("idwInterpolate respects the radius") {
    import spark.implicits._
    val samples = Seq((63.40, 10.40, 100.0)).toDF("lat", "lon", "v")
    val targets = Seq(("far", 64.50, 10.40)).toDF("pointKey", "lat", "lon")
    val out = SpatialJoin.idwInterpolate(targets, "pointKey", samples, Seq("v"), 5.0)
    assert(out.count() == 0)
  }
}
