package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Grounding and calibration against official measurements (§2.4): the
  * co-located sensor is calibrated by ordinary least squares against the
  * reference station; the rest of the network is grounded "through
  * larger-scale correlated trends, but with lower certainty".
  */
object Calibration {

  /** An OLS fit y ≈ slope·x + intercept with fit diagnostics. */
  final case class Fit(slope: Double, intercept: Double, r2: Double,
                       rmse: Double, meanBias: Double, n: Long)

  /** Fit truth (`yCol`, reference) from sensor (`xCol`, raw) via single-pass
    * moment aggregation — no per-row iteration.
    */
  def fitOls(pairs: DataFrame, xCol: String, yCol: String): Fit = {
    val row = pairs
      .where(col(xCol).isNotNull && col(yCol).isNotNull)
      .agg(
        count(lit(1)).as("n"),
        sum(col(xCol)).as("sx"), sum(col(yCol)).as("sy"),
        sum(col(xCol) * col(xCol)).as("sxx"),
        sum(col(xCol) * col(yCol)).as("sxy"),
        sum(col(yCol) * col(yCol)).as("syy"))
      .head()
    val n = row.getAs[Long]("n").toDouble
    require(n >= 2, "need at least 2 pairs to fit")
    val (sx, sy) = (row.getAs[Double]("sx"), row.getAs[Double]("sy"))
    val (sxx, sxy, syy) = (row.getAs[Double]("sxx"), row.getAs[Double]("sxy"), row.getAs[Double]("syy"))
    val varX = sxx - sx * sx / n
    val varY = syy - sy * sy / n
    val covXY = sxy - sx * sy / n
    val slope = covXY / varX
    val intercept = (sy - slope * sx) / n
    val r2 = if (varY <= 0) 1.0 else math.pow(covXY, 2) / (varX * varY)
    // Residual moments from the same sums: e = y - (a x + b).
    val sse = syy - 2 * slope * sxy - 2 * intercept * sy +
      slope * slope * sxx + 2 * slope * intercept * sx + n * intercept * intercept
    val rmse = math.sqrt(math.max(0.0, sse) / n)
    val meanBias = (sx - sy) / n // raw sensor minus reference
    Fit(slope, intercept, r2, rmse, meanBias, n.toLong)
  }

  /** Apply a fit to a raw sensor column. */
  def apply(df: DataFrame, rawCol: String, fit: Fit, outCol: String): DataFrame =
    df.withColumn(outCol, lit(fit.slope) * col(rawCol) + lit(fit.intercept))

  /** RMSE and mean bias of `estCol` against `refCol`. */
  def errorStats(pairs: DataFrame, estCol: String, refCol: String): (Double, Double) = {
    val row = pairs.where(col(estCol).isNotNull && col(refCol).isNotNull)
      .agg(
        sqrt(avg(pow(col(estCol) - col(refCol), 2))).as("rmse"),
        avg(col(estCol) - col(refCol)).as("bias"))
      .head()
    (row.getAs[Double]("rmse"), row.getAs[Double]("bias"))
  }

  /** Network grounding via correlated trends: Pearson correlation of each
    * sensor's daily mean with the reference station's daily mean. High
    * correlation ⇒ the co-located calibration transfers (lower certainty);
    * low correlation flags a sensor for inspection.
    * `readings` needs (deviceId, tsEpoch, valueCol); `reference` needs
    * (tsEpoch, refCol).
    */
  def trendCorrelation(readings: DataFrame, valueCol: String,
                       reference: DataFrame, refCol: String): DataFrame = {
    val dailySensor = readings
      .withColumn("day", TemporalAlign.dayIdx(col("tsEpoch")))
      .groupBy(col("deviceId"), col("day"))
      .agg(avg(col(valueCol)).as("v"))
    val dailyRef = reference
      .withColumn("day", TemporalAlign.dayIdx(col("tsEpoch")))
      .groupBy(col("day"))
      .agg(avg(col(refCol)).as("ref"))
    dailySensor.join(dailyRef, "day")
      .groupBy(col("deviceId"))
      .agg(corr(col("v"), col("ref")).as("trendCorr"), count(lit(1)).as("nDays"))
  }
}
