package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.iot.{Battery, Cities}

/** The battery-level analysis of Fig 4.
  *
  * Left panel: battery level as a function of time per node. Right panel:
  * the difference in battery level from the previous sent package versus
  * time of day, coloured by whether the node could have been charged by
  * sunlight since the previous package. From these, night depletion rates
  * and a days-to-empty estimate per node ("allows to estimate battery
  * depletion").
  */
object BatteryAnalysis {

  private val sunSinceUdf = udf((city: String, lat: Double, t0: Long, t1: Long) =>
    Battery.sunBetween(Cities.of(city), lat, t0, t1))

  /** Per-packet battery deltas: previous timestamp/level via a lag window,
    * local hour of day, and the sun-since-previous-package flag.
    * Input needs (deviceId, city, lat, tsEpoch, batteryPct).
    */
  def deltas(readings: DataFrame): DataFrame = {
    val w = Window.partitionBy(col("deviceId")).orderBy(col("tsEpoch"))
    readings
      .withColumn("prevTs", lag(col("tsEpoch"), 1).over(w))
      .withColumn("prevLevel", lag(col("batteryPct"), 1).over(w))
      .where(col("prevTs").isNotNull)
      .withColumn("deltaPct", col("batteryPct") - col("prevLevel"))
      .withColumn("gapMin", (col("tsEpoch") - col("prevTs")) / 60.0)
      .withColumn("hourOfDay", TemporalAlign.hourOfDay(col("tsEpoch"), 1))
      .withColumn("sunSincePrev",
        sunSinceUdf(col("city"), col("lat"), col("prevTs"), col("tsEpoch")))
  }

  /** Fig 4 right as data: mean Δlevel per (hourOfDay, sunSincePrev) with
    * spread — the red/blue scatter reduced to its summary statistics.
    */
  def deltaByHour(readings: DataFrame): DataFrame =
    deltas(readings)
      .groupBy(col("hourOfDay"), col("sunSincePrev"))
      .agg(avg(col("deltaPct")).as("meanDeltaPct"),
           stddev_samp(col("deltaPct")).as("stdDeltaPct"),
           count(lit(1)).as("nPackets"))
      .orderBy(col("hourOfDay"), col("sunSincePrev"))

  /** Depletion estimate per node: mean discharge rate (%/h) over packets
    * with no sun since the previous one, and the implied days from full to
    * empty at that rate. Charging stats from sunlit packets alongside.
    */
  def depletionEstimate(readings: DataFrame): DataFrame = {
    val d = deltas(readings).withColumn("ratePctPerH", col("deltaPct") / (col("gapMin") / 60.0))
    d.groupBy(col("deviceId"), col("city"))
      .agg(
        avg(when(!col("sunSincePrev"), col("ratePctPerH"))).as("nightRatePctPerH"),
        avg(when(col("sunSincePrev"), col("ratePctPerH"))).as("sunRatePctPerH"),
        min(col("batteryPct")).as("minLevelPct"),
        max(col("batteryPct")).as("maxLevelPct"),
        count(lit(1)).as("nPackets"))
      .withColumn("daysToEmptyAtNightRate",
        when(col("nightRatePctPerH") < 0, lit(-100.0) / (col("nightRatePctPerH") * 24)))
  }
}
