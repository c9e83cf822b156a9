package repro.tsdb

import org.apache.hadoop.fs.{FileStatus, Path}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.DataStreamWriter
import repro.core.{TemporalAlign, firstPerKey}

/** OpenTSDB-like time-series store over time-partitioned Parquet.
  *
  * Data model mirrors OpenTSDB: a point is (metric, timestamp, value, tags),
  * here with the deployment's standard tag columns (deviceId, city) made
  * explicit for pruning. Physical layout is Hive-partitioned by
  * `metric` and `date` so metric/time-range queries prune partitions, and
  * downsampling is pushed into Catalyst window aggregation — the query
  * surface the paper's Zeppelin dashboards use against OpenTSDB.
  */
final case class TsdbStore(path: String) {

  import TsdbStore._

  /** Append points. Input must have columns
    * (metric, tsEpoch, value, deviceId, city). Refused on a store a
    * streaming query writes: its readers see only the files the sink logged.
    */
  def put(points: DataFrame): Unit = {
    require(!entries(points.sparkSession, path).exists(_.getPath.getName == SinkLog),
      s"$path is written by a streaming query; a put's files would stay unread")
    laidOut(points).write.mode("append").partitionBy(PartitionColumns: _*).parquet(path)
  }

  /** A streaming writer that appends points through Spark's Parquet file
    * sink, laid out as by [[put]]. The sink logs each committed micro-batch
    * in `<path>/_spark_metadata` and skips a batch already logged, so a batch
    * the checkpoint replays after a crash is stored once. The log counts the
    * checkpoint's batch ids, so a new checkpoint needs an empty store.
    */
  def sink(points: DataFrame, checkpointDir: String): DataStreamWriter[Row] = {
    val spark = points.sparkSession
    require(entries(spark, path).isEmpty || entries(spark, s"$checkpointDir/offsets").nonEmpty,
      s"$path is not empty and checkpoint $checkpointDir is new: the sink would skip its batches")
    laidOut(points).writeStream.format("parquet").partitionBy(PartitionColumns: _*)
      .option("path", path).option("checkpointLocation", checkpointDir)
  }

  private def load(spark: SparkSession): DataFrame = spark.read.parquet(path)

  /** Every stored point, columns in [[TsdbStore.PointColumns]] order. */
  def points(spark: SparkSession): DataFrame = load(spark).select(PointColumns.map(col): _*)

  /** Raw points of one metric in [startEpoch, endEpoch), optionally filtered
    * by tag equality.
    */
  def query(spark: SparkSession, metric: String, startEpoch: Long, endEpoch: Long,
            tags: Map[String, String] = Map.empty): DataFrame = {
    val base = load(spark)
      .where(col("metric") === metric &&
        col("tsEpoch") >= startEpoch && col("tsEpoch") < endEpoch)
    tags.foldLeft(base) { case (df, (k, v)) => df.where(col(k) === v) }
      .select("metric", "tsEpoch", "value", "deviceId", "city")
  }

  /** OpenTSDB-style downsample: fixed windows of `windowMinutes`, one of
    * avg|min|max|sum|count per (deviceId, window). Returns
    * (deviceId, city, windowStartEpoch, value).
    */
  def downsample(spark: SparkSession, metric: String, startEpoch: Long, endEpoch: Long,
                 windowMinutes: Int, agg: String = "avg",
                 tags: Map[String, String] = Map.empty): DataFrame = {
    val fn = agg match {
      case "avg" => avg(col("value")); case "min" => min(col("value"))
      case "max" => max(col("value")); case "sum" => sum(col("value"))
      case "count" => count(col("value")).cast("double")
      case other => throw new IllegalArgumentException(s"unsupported agg: $other")
    }
    query(spark, metric, startEpoch, endEpoch, tags)
      .withColumn("windowStartEpoch", TemporalAlign.windowStart(col("tsEpoch"), windowMinutes))
      .groupBy(col("deviceId"), col("city"), col("windowStartEpoch"))
      .agg(fn.as("value"))
  }

  /** Latest point per device for a metric (dashboard "real-time" panel). */
  def latest(spark: SparkSession, metric: String): DataFrame =
    firstPerKey(load(spark).where(col("metric") === metric), "deviceId", col("tsEpoch").desc)
      .select("metric", "deviceId", "city", "tsEpoch", "value")

  /** Distinct metrics currently stored. */
  def metrics(spark: SparkSession): Seq[String] =
    load(spark).select("metric").distinct().collect().map(_.getString(0)).toSeq.sorted
}

object TsdbStore {
  val PointColumns: Seq[String] = Seq("metric", "tsEpoch", "value", "deviceId", "city")

  private val PartitionColumns = Seq("metric", "date")
  /** The streaming file sink's commit log, a subdirectory of its output. */
  private val SinkLog = "_spark_metadata"

  /** Points with their `date` column, clustered by partition: one put or
    * micro-batch writes one file per (metric, date).
    */
  private def laidOut(points: DataFrame): DataFrame = {
    require(PointColumns.forall(points.columns.contains),
      s"need columns $PointColumns, got ${points.columns.toSeq}")
    points
      .withColumn("date", to_date(timestamp_seconds(col("tsEpoch"))))
      .repartition(PartitionColumns.map(col): _*)
  }

  /** The entries of directory `dir`; none if it does not exist. */
  private def entries(spark: SparkSession, dir: String): Seq[FileStatus] = {
    val p = new Path(dir)
    val fs = p.getFileSystem(spark.sparkContext.hadoopConfiguration)
    if (fs.exists(p)) fs.listStatus(p).toSeq else Seq.empty
  }

  /** Melt wide readings (one column per measured quantity) into TSDB points
    * with columns in [[PointColumns]] order. `metricCols` maps column name →
    * metric name. One `unpivot` reads each input row once, so a streaming
    * micro-batch plan (scan, decode, dedup, enrich) runs once, not once per
    * metric as a union of per-metric selects would.
    */
  def meltReadings(readings: DataFrame, metricCols: Map[String, String]): DataFrame =
    readings.unpivot(
      Array(col("tsEpoch"), col("deviceId"), col("city")),
      metricCols.toArray.map { case (c, metric) => col(c).cast("double").as(metric) },
      "metric", "value")
      .select(PointColumns.map(col): _*)

  /** Standard metric mapping of the deployment. */
  val StandardMetrics: Map[String, String] = Map(
    "co2Ppm" -> "air.co2", "no2Ugm3" -> "air.no2", "pm10Ugm3" -> "air.pm10",
    "pm25Ugm3" -> "air.pm25", "tempC" -> "weather.temp",
    "humidityPct" -> "weather.humidity", "pressureHpa" -> "weather.pressure",
    "batteryPct" -> "node.battery")
}
