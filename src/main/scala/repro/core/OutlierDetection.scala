package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Identification of outliers and malfunctioning sensors (§2.4) — the
  * analysis-level complement of the dataport's liveness monitoring: a
  * decaying sensor shows as a per-day drift of its residual against the
  * fleet's city-hour consensus.
  */
object OutlierDetection {

  /** Decaying-sensor detection: per device, OLS slope (per day) of the
    * residual against the city-hour consensus, *after* removing the device's
    * own affine response (gain/bias) to that consensus — otherwise a healthy
    * sensor with a 10 % gain error shows a spurious "drift" whenever the
    * city level itself trends across the window. A healthy sensor's
    * de-gained residual is flat; a time-linear drift ⇒ decaying hardware.
    * Returns (deviceId, residualSlopePerDay, meanResidual, nWindows).
    */
  def residualDrift(readings: DataFrame, valueCol: String): DataFrame = {
    val hourly = readings.withColumn("windowStartEpoch",
      TemporalAlign.windowStart(col("tsEpoch"), 60))
    val sensorHour = hourly.groupBy(col("deviceId"), col("city"), col("windowStartEpoch"))
      .agg(avg(col(valueCol)).as("v"))
    val consensus = sensorHour.groupBy(col("city"), col("windowStartEpoch"))
      .agg(expr("percentile_approx(v, 0.5, 10000)").as("med"))
    val joined = sensorHour.join(consensus, Seq("city", "windowStartEpoch"))
      .withColumn("day", (col("windowStartEpoch") - Schemas.EpochStart) / lit(86400.0))
    // Per-device affine fit v ≈ a·med + b.
    val fits = joined.groupBy(col("deviceId").as("fitDeviceId"))
      .agg(
        (covar_samp(col("v"), col("med")) / var_samp(col("med"))).as("a"),
        avg(col("v")).as("mv"), avg(col("med")).as("mm"))
      .withColumn("b", col("mv") - col("a") * col("mm"))
      .select(col("fitDeviceId"), col("a"), col("b"))
    joined.join(fits, joined("deviceId") === fits("fitDeviceId"))
      .withColumn("residual", col("v") - (col("a") * col("med") + col("b")))
      .groupBy(col("deviceId"))
      .agg(
        (covar_samp(col("day"), col("residual")) / var_samp(col("day"))).as("residualSlopePerDay"),
        avg(col("residual")).as("meanResidual"),
        count(lit(1)).as("nWindows"))
  }

  /** Devices whose residual drifts faster than 0.3 units per day. */
  def decayingSensors(readings: DataFrame, valueCol: String): DataFrame =
    residualDrift(readings, valueCol)
      .where(abs(col("residualSlopePerDay")) > 0.3)
}
