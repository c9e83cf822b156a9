package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Fig 7: integration of sensor data into the 3D city model, plus the demo's
  * "inject synthetic data showing different pollution levels" interaction
  * (§3, city officials' point of view).
  *
  * Sensor aggregates are interpolated (IDW) onto building centroids and
  * classified into CAQI bands — the per-building colouring of the CityGML
  * visualization. A synthetic point source adds a Gaussian plume so planners
  * can probe construction-site scenarios.
  */
object CityModelExport {

  /** Mean pollutant level per sensor over [startEpoch, endEpoch). */
  def sensorAggregates(readings: DataFrame, startEpoch: Long, endEpoch: Long): DataFrame =
    readings
      .where(col("tsEpoch") >= startEpoch && col("tsEpoch") < endEpoch)
      .groupBy(col("deviceId"), col("city"), col("lat"), col("lon"))
      .agg(avg(col("no2Ugm3")).as("no2Ugm3"), avg(col("pm10Ugm3")).as("pm10Ugm3"),
           avg(col("pm25Ugm3")).as("pm25Ugm3"), avg(col("co2Ppm")).as("co2Ppm"))

  /** Building-level pollutant surface with CAQI bands, interpolated from
    * the sensors within 5 km of each building.
    */
  def buildingLevels(buildings: DataFrame, sensorAgg: DataFrame): DataFrame = {
    val interpolated = SpatialJoin.idwInterpolate(
      buildings.select("buildingId", "lat", "lon"), "buildingId",
      sensorAgg, Seq("no2Ugm3", "pm10Ugm3", "pm25Ugm3", "co2Ppm"), 5.0)
    interpolated
      .join(buildings.select("buildingId", "city", "heightM", "use"), Seq("buildingId"))
      .withColumn("caqi", Aqi.siteIndexCol(col("no2Ugm3"), col("pm10Ugm3"), col("pm25Ugm3")))
      .withColumn("caqiName", Aqi.bandNameCol(col("caqi")))
  }

  /** A synthetic pollution source for the interactive planning scenario. */
  final case class SyntheticSource(lat: Double, lon: Double,
                                   no2Strength: Double, pm10Strength: Double,
                                   /** Gaussian plume scale in km. */
                                   sigmaKm: Double = 0.4)

  /** Overlay a synthetic source onto building levels and re-band: the demo's
    * "see how different pollution levels will affect their decision makings".
    */
  def injectSource(levels: DataFrame, src: SyntheticSource): DataFrame = {
    val d = GeoFunctions.haversineKmCol(col("lat"), col("lon"), lit(src.lat), lit(src.lon))
    val plume = exp(-pow(d, 2) / lit(2 * src.sigmaKm * src.sigmaKm))
    levels
      .withColumn("no2Ugm3", col("no2Ugm3") + lit(src.no2Strength) * plume)
      .withColumn("pm10Ugm3", col("pm10Ugm3") + lit(src.pm10Strength) * plume)
      .withColumn("pm25Ugm3", col("pm25Ugm3") + lit(src.pm10Strength * 0.55) * plume)
      .withColumn("caqi", Aqi.siteIndexCol(col("no2Ugm3"), col("pm10Ugm3"), col("pm25Ugm3")))
      .withColumn("caqiName", Aqi.bandNameCol(col("caqi")))
  }
}
