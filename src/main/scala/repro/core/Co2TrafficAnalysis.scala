package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The Fig 5 study: dynamics of CO2 and possible links to the here.com
  * traffic jam factor. The paper's conclusion — "traffic is not the only
  * factor ... they exhibit different patterns, and have no apparent
  * correlation"; the analysis therefore also produces diurnal profiles,
  * lagged correlations, and a weather-covariate correlation matrix.
  */
object Co2TrafficAnalysis {

  private val MaxLinkKm = 2.0
  private val TzOffsetHours = 1 // both cities are on CET

  /** Hourly alignment of sensor pollutants with the jam factor of the
    * nearest traffic link.
    *
    * `readings`: ETL output; `traffic`: (linkId, lat, lon, tsEpoch, jamFactor);
    * `links`: (linkId, lat, lon) dimension. Output one row per
    * (deviceId, hourly window) with pollutant means and jamFactor.
    */
  def alignHourly(readings: DataFrame, traffic: DataFrame, links: DataFrame): DataFrame = {
    val sensors = readings.select("deviceId", "city", "lat", "lon").distinct()
    val sensorLink = SpatialJoin.nearest(sensors, "deviceId", links, "linkId", MaxLinkKm)
      .select(col("deviceId"), col("linkId"), col("distKm").as("linkDistKm"))
    val hourlySensor = TemporalAlign.resampleMean(readings,
      Seq("deviceId", "city"), Seq("co2Ppm", "no2Ugm3", "pm10Ugm3", "tempC", "humidityPct"), 60)
    val hourlyTraffic = TemporalAlign.resampleMean(traffic,
      Seq("linkId"), Seq("jamFactor"), 60)
    hourlySensor.join(sensorLink, "deviceId")
      .join(hourlyTraffic, Seq("linkId", "windowStartEpoch"))
  }

  /** Mean diurnal profile (hour of day 0..23) of selected columns —
    * the "different patterns" evidence of Fig 5.
    */
  def diurnalProfile(aligned: DataFrame, cols: Seq[String]): DataFrame = {
    val aggs = cols.map(c => avg(col(c)).as(c))
    aligned
      .withColumn("hourOfDay", TemporalAlign.hourOfDay(col("windowStartEpoch"), TzOffsetHours))
      .groupBy(col("hourOfDay"))
      .agg(aggs.head, aggs.tail: _*)
      .orderBy(col("hourOfDay"))
  }

  /** Hour of day at which each column's diurnal profile peaks, from one
    * profile over all of `cols`.
    */
  def diurnalPeakHours(aligned: DataFrame, cols: Seq[String]): Seq[Int] = {
    val profile = diurnalProfile(aligned, cols).collect()
    cols.map(c => profile.maxBy(_.getAs[Double](c)).getAs[Int]("hourOfDay"))
  }

  /** Pearson correlation of each column pair, all in one job. */
  private def corrs(df: DataFrame, pairs: Seq[(String, String)]): Seq[Double] = {
    val r = df.select(pairs.map { case (a, b) => corr(col(a), col(b)) }: _*).head()
    pairs.indices.map(r.getDouble)
  }

  /** Pearson correlation of each pollutant with the jam factor. */
  def pollutantTrafficCorrelations(aligned: DataFrame,
                                   pollutants: Seq[String]): DataFrame = {
    val spark = aligned.sparkSession
    import spark.implicits._
    pollutants.zip(corrs(aligned, pollutants.map(_ -> "jamFactor")))
      .toDF("pollutant", "corrWithJamFactor")
  }

  /** Correlation of CO2 with jamFactor shifted by each lag (hours): a real
    * traffic→CO2 causal link would show up at small positive lags; the
    * paper's data does not show one. One row per requested lag, in the
    * requested order; a lag with no overlapping hours has a null `corr`.
    */
  def laggedCorrelation(aligned: DataFrame, valueCol: String,
                        lagsHours: Seq[Int]): DataFrame = {
    val byDevice = aligned.select(col("deviceId"), col("windowStartEpoch"), col(valueCol))
    // One copy of each row per lag; `lagIdx` keeps the requested order.
    val shifted = aligned.select(col("deviceId"), col("windowStartEpoch"),
        col("jamFactor").as("jamLagged"),
        posexplode(typedLit(lagsHours)).as(Seq("lagIdx", "lagHours")))
      .withColumn("windowStartEpoch", col("windowStartEpoch") + col("lagHours") * 3600L)
    // Left join: a lag past the horizon keeps its group, and corr skips the
    // unmatched (null) rows, so it equals the inner join's value.
    shifted.join(byDevice, Seq("deviceId", "windowStartEpoch"), "left")
      .groupBy(col("lagIdx"), col("lagHours"))
      .agg(corr(col(valueCol), col("jamLagged")).as("corr"))
      .orderBy(col("lagIdx"))
      .select(col("lagHours"), col("corr"))
  }

  /** Correlation of CO2 with every candidate driver — the "many factors"
    * conclusion of §2.4 (traffic, temperature, humidity, diurnal cycle).
    */
  def co2FactorMatrix(aligned: DataFrame): DataFrame = {
    val spark = aligned.sparkSession
    import spark.implicits._
    val withHour = aligned.withColumn("hourOfDay",
      TemporalAlign.hourOfDay(col("windowStartEpoch"), TzOffsetHours).cast("double"))
    val factors = Seq("jamFactor", "tempC", "humidityPct", "hourOfDay")
    factors.zip(corrs(withHour, factors.map("co2Ppm" -> _))).toDF("factor", "corrWithCo2")
  }
}
