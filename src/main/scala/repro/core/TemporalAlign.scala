package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Temporal integration of heterogeneous sources (§2.2: "different
  * timescales, measurement frequencies ... granularities").
  *
  * Everything is aligned onto fixed epoch-anchored windows so a 5-minute
  * sensor stream, an hourly official station, a 5-minute traffic feed and a
  * ~16-day satellite revisit can be joined on `windowStartEpoch`.
  */
object TemporalAlign {

  /** Floor an epoch-seconds column to a window start. */
  def windowStart(tsEpoch: Column, windowMinutes: Int): Column = {
    val w = windowMinutes * 60L
    (tsEpoch / w).cast("long") * w
  }

  /** Resample irregular points to fixed windows: one row per (keys, window)
    * with the mean of each value column under its own name.
    */
  def resampleMean(df: DataFrame, keys: Seq[String], valueCols: Seq[String],
                   windowMinutes: Int): DataFrame = {
    val aggs = valueCols.map(c => avg(col(c)).as(c))
    df.withColumn("windowStartEpoch", windowStart(col("tsEpoch"), windowMinutes))
      .groupBy((keys.map(col) :+ col("windowStartEpoch")): _*)
      .agg(aggs.head, aggs.tail: _*)
  }

  /** Local hour-of-day of a window start (fixed UTC offset, DST ignored). */
  def hourOfDay(windowStartEpoch: Column, tzOffsetHours: Int): Column =
    (((windowStartEpoch + tzOffsetHours * 3600L) % 86400L) / 3600L).cast("int")

  /** Day index since the 2017-01-01 epoch start. */
  def dayIdx(windowStartEpoch: Column): Column =
    ((windowStartEpoch - Schemas.EpochStart) / 86400L).cast("long")
}
