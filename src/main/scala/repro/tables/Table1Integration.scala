package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.external._
import repro.iot.Cities

/** Table 1 of the paper — "Examples of external data integration" — made
  * executable: every listed source type is generated, integrated with the
  * sensor network, and proven by a measured integration statistic.
  */
object Table1Integration {

  final case class SourceRow(
      sourceType: String,
      example: String,
      rowsIngested: Long,
      resolution: String,
      integration: String,
      measuredStat: String,
      /** Numeric value behind measuredStat, for bench assertions. */
      statValue: Double)

  final case class Result(rows: Seq[SourceRow], rendered: String)

  def compute(spark: SparkSession, sf: Double, seed: Long = 7L): Result = {
    val readings = Pipeline.okReadingsCached(spark, sf, seed)

    // A table caches a DataFrame only when two or more actions read it.

    // 1. Official air-quality measurements (NILU): grounding & calibration.
    val nilu = NiluStations.observations(spark, sf, seed).cache()
    val niluRows = nilu.count()
    val coloc = colocatedPairs(readings, nilu)
    val fit = Calibration.fitOls(coloc, "sensorNo2", "refNo2")
    val r1 = SourceRow("Official air quality", "NILU reference stations", niluRows,
      "hourly / 2 stations", "ground co-located sensor; OLS calibration",
      f"co-located NO2 fit R2=${fit.r2}%.3f over ${fit.n} h", fit.r2)

    // 2. Remote sensing (NASA OCO-2): top-down grounding, coarse resolution.
    val oco2 = Oco2Satellite.soundings(spark, sf, seed).cache()
    val ocoRows = oco2.count()
    val cityCo2 = readings.groupBy(col("city")).agg(avg(col("co2Ppm")).as("sensorCo2"))
    val satCity = oco2.groupBy(col("city")).agg(avg(col("xco2Ppm")).as("xco2"))
    val offset = cityCo2.join(satCity, "city")
      .agg(avg(col("sensorCo2") - col("xco2"))).head().getDouble(0)
    val r2 = SourceRow("Remote sensing", "NASA OCO-2 XCO2 swaths", ocoRows,
      s"~${Oco2Satellite.RevisitDays}-day revisit / ~2 km",
      "city-mean surface CO2 vs column CO2",
      f"surface-column offset ${offset}%.1f ppm", offset)

    // 3. Traffic data (here.com): continuous jam factor vs emissions.
    val traffic = HereTraffic.jamFactors(spark, sf, seed).cache()
    val trafficRows = traffic.count()
    val aligned = Co2TrafficAnalysis.alignHourly(readings, traffic,
      HereTraffic.linksDF(spark))
    val no2Corr = aligned.agg(corr(col("no2Ugm3"), col("jamFactor"))).head().getDouble(0)
    val r3 = SourceRow("Traffic data", "here.com jam factor", trafficRows,
      "5-min / 9 links", "nearest-link join; NO2-traffic correlation",
      f"corr(NO2, jam)=${no2Corr}%.3f", no2Corr)

    // 4. Municipal traffic counts: validate the continuous estimates.
    val counts = TrafficCounts.counts(spark, sf, seed).cache()
    val countRows = counts.count()
    val hourlyJam = TemporalAlign.resampleMean(traffic, Seq("linkId"), Seq("jamFactor"), 60)
    val countLinks = SpatialJoin.nearest(
      counts.select(col("countStationId"), col("lat"), col("lon")).distinct(),
      "countStationId", HereTraffic.linksDF(spark), "linkId", 0.5)
    val countVsJam = counts
      .withColumn("windowStartEpoch", TemporalAlign.windowStart(col("tsEpoch"), 60))
      .join(countLinks.select("countStationId", "linkId"), "countStationId")
      .join(hourlyJam, Seq("linkId", "windowStartEpoch"))
    val cntCorr = countVsJam.agg(corr(col("vehiclesPerHour"), col("jamFactor")))
      .head().getDouble(0)
    val r4 = SourceRow("Municipal traffic counts", "induction-loop campaign", countRows,
      "hourly / 7-day campaign", "validate jam factor against counts",
      f"corr(counts, jam)=${cntCorr}%.3f during overlap", cntCorr)

    // 5. 3D city model (Vejle): pollutant surface onto buildings.
    val buildings = CityModel.buildings(spark, Cities.Vejle, seed = seed)
    val nBuildings = buildings.count()
    val endEpoch = Schemas.EpochStart + Schemas.days(sf) * 86400L
    val agg = CityModelExport.sensorAggregates(
      readings.where(col("city") === Cities.Vejle.name), Schemas.EpochStart, endEpoch)
    val levels = CityModelExport.buildingLevels(buildings, agg)
    val covered = levels.where(col("no2Ugm3").isNotNull).count()
    val coverage = covered.toDouble / nBuildings
    val r5 = SourceRow("3D city models", "municipal CityGML grid (Vejle)", nBuildings,
      "static / building", "IDW pollutant surface per building + CAQI band",
      f"building coverage ${coverage * 100}%.1f%%", coverage)

    // 6. National statistics: downscaled GHG inventory vs city context.
    val national = NationalStats.nationalInventory(spark)
    val natRows = national.count()
    val trd = NationalStats.downscaleToCity(national, "Trondheim")
    val trdTotal = trd.agg(sum(col("cityKtCo2e"))).head().getDouble(0)
    val r6 = SourceRow("National statistics", "GHG inventory by sector", natRows,
      "annual / national", "population-share downscaling to city",
      f"Trondheim estimate ${trdTotal}%.0f ktCO2e/yr (high uncertainty)", trdTotal)

    // 7. Other municipal data: land-use GIS classifying sensor context.
    val landUse = MunicipalGis.landUseGrid(spark, Cities.Trondheim, seed = seed)
    val luRows = landUse.count()
    val sensors = readings.select("deviceId", "city", "lat", "lon").distinct()
      .where(col("city") === Cities.Trondheim.name)
    val classified = MunicipalGis.classifySensors(sensors, landUse, Cities.Trondheim)
    val tally = classified.agg(count(when(col("landUse") =!= "unmapped", 1)), count(lit(1)))
      .head()
    val (mapped, trdSensors) = (tally.getLong(0), tally.getLong(1))
    val r7 = SourceRow("Other municipal data", "land-use GIS grid", luRows,
      "static / ~100 m cell", "classify sensor sites by land use",
      s"$mapped/$trdSensors Trondheim sensors classified", mapped.toDouble)

    val rows = Seq(r1, r2, r3, r4, r5, r6, r7)
    val rendered = TableFmt.render(
      f"Table 1 (reproduced): external data integration, SF=$sf%.2f",
      Seq("Type", "Example", "Rows", "Resolution", "Integration", "Measured"),
      rows.map(r => Seq(r.sourceType, r.example, r.rowsIngested.toString,
        r.resolution, r.integration, r.measuredStat)))
    nilu.unpersist(); oco2.unpersist(); traffic.unpersist(); counts.unpersist()
    Result(rows, rendered)
  }

  /** Hourly pairs of the co-located sensor and its reference station. */
  def colocatedPairs(readings: DataFrame, nilu: DataFrame): DataFrame = {
    val sensorHourly = TemporalAlign.resampleMean(
      readings.where(col("deviceId") === "ctt-trd-01"),
      Seq("deviceId"), Seq("no2Ugm3", "pm10Ugm3"), 60)
      .withColumnRenamed("no2Ugm3", "sensorNo2")
      .withColumnRenamed("pm10Ugm3", "sensorPm10")
    val refHourly = TemporalAlign.resampleMean(
      nilu.where(col("stationId") === repro.iot.SensorFleet.ColocatedStationId),
      Seq("stationId"), Seq("no2Ugm3", "pm10Ugm3"), 60)
      .withColumnRenamed("no2Ugm3", "refNo2")
      .withColumnRenamed("pm10Ugm3", "refPm10")
    sensorHourly.join(refHourly, "windowStartEpoch")
  }
}
