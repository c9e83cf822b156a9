package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The data products behind the Fig 6 dashboards (Zeppelin/OpenTSDB in the
  * paper): per-sensor real-time panel with CAQI classification, a
  * traffic-flow panel, and the combined wall display of Fig 8. The hourly
  * time-series charts are [[repro.tsdb.TsdbStore.downsample]] with a
  * 60-minute window.
  */
object Dashboard {

  /** "Real-time" air-quality panel: the latest reading per sensor with its
    * CAQI band and name — what the mapped sensor markers show.
    */
  def latestAirQuality(readings: DataFrame): DataFrame =
    firstPerKey(readings, "deviceId", col("tsEpoch").desc)
      .withColumn("caqi", Aqi.siteIndexCol(col("no2Ugm3"), col("pm10Ugm3"), col("pm25Ugm3")))
      .withColumn("caqiName", Aqi.bandNameCol(col("caqi")))
      .select("deviceId", "city", "lat", "lon", "tsEpoch",
        "co2Ppm", "no2Ugm3", "pm10Ugm3", "pm25Ugm3", "tempC", "caqi", "caqiName")

  /** Traffic-flow panel: latest jam factor per link with a flow class. */
  def trafficPanel(traffic: DataFrame): DataFrame =
    firstPerKey(traffic, "linkId", col("tsEpoch").desc)
      .withColumn("flowClass",
        when(col("jamFactor") < 2.0, "free")
          .when(col("jamFactor") < 5.0, "moderate")
          .when(col("jamFactor") < 8.0, "congested")
          .otherwise("blocked"))
      .select("linkId", "city", "lat", "lon", "tsEpoch", "jamFactor", "flowClass")

  /** Per-city summary tiles of the wall display (Fig 8): sensors reporting
    * in the last hour, city-mean pollutants, worst CAQI.
    */
  def citySummary(readings: DataFrame, nowEpoch: Long): DataFrame = {
    val lastHour = readings.where(col("tsEpoch") >= nowEpoch - 3600)
    lastHour.groupBy(col("city"))
      .agg(
        countDistinct(col("deviceId")).as("sensorsReporting"),
        avg(col("co2Ppm")).as("meanCo2Ppm"),
        avg(col("no2Ugm3")).as("meanNo2Ugm3"),
        avg(col("pm10Ugm3")).as("meanPm10Ugm3"),
        max(Aqi.siteIndexCol(col("no2Ugm3"), col("pm10Ugm3"), col("pm25Ugm3"))).as("worstCaqi"))
  }
}
