package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import repro.core.Schemas.Quality
import repro.lorawan.PacketCodec
import repro.tsdb.TsdbStore

/** The ingestion pipeline of Fig 1: received LoRaWAN packets (as forwarded
  * onto the MQTT→file bridge) are decoded, validated, deduplicated across
  * gateways, and enriched with fleet metadata into one reading row per
  * frame, the unit of all analytics.
  *
  * One transformation, two drivers: [[batch]] for historic reprocessing and
  * [[startStream]] for Structured Streaming ingestion into the TSDB — the
  * tests assert exact parity between the two on the same packet set.
  */
object StreamingEtl {

  /** Plausibility ranges of the validation stage (per quantity). */
  val Ranges: Map[String, (Double, Double)] = Map(
    "co2Ppm" -> (300.0, 5000.0), "no2Ugm3" -> (0.0, 600.0),
    "pm10Ugm3" -> (0.0, 1200.0), "pm25Ugm3" -> (0.0, 600.0),
    "tempC" -> (-45.0, 55.0), "humidityPct" -> (0.0, 100.0),
    "pressureHpa" -> (850.0, 1100.0))

  private val decodeUdf = udf((payload: String) => PacketCodec.decode(payload))

  /** Decode → validate → dedup → enrich. Works unchanged on batch and
    * streaming DataFrames with [[Schemas.packetSchema]].
    *
    * Output columns: deviceId, city, lat, lon, tsEpoch, the eight measured
    * quantities (co2Ppm, no2Ugm3, pm10Ugm3, pm25Ugm3, tempC, humidityPct,
    * pressureHpa, batteryPct) and qualityFlag. No column depends on which
    * gateway's copy of a frame survives dedup, and no row on the order in
    * which packets arrive, so any micro-batch split and file order of a
    * stream stores what [[batch]] computes.
    */
  def transform(packets: DataFrame, fleet: DataFrame): DataFrame = {
    val decoded = packets.withColumn("m", decodeUdf(col("payloadB64")))

    val rangeOk = Ranges.map { case (field, (lo, hi)) =>
      col("m").getField(field).between(lo, hi)
    }.reduce(_ && _)

    val validated = decoded.withColumn("qualityFlag",
      when(col("m").isNull, Quality.DecodeError)
        .when(!rangeOk, Quality.RangeViolation)
        .otherwise(Quality.Ok))

    // Multi-gateway duplicates share (deviceId, tsEpoch), the point's identity;
    // keep one copy. Unlike the frame counter, it survives a node's reset.
    // Streaming dedup state holds one row per frame seen and is never evicted.
    val deduped = validated.dropDuplicates("deviceId", "tsEpoch")

    deduped
      .join(fleet.select("deviceId", "city", "lat", "lon"), Seq("deviceId"))
      .select(
        col("deviceId"), col("city"), col("lat"), col("lon"),
        col("tsEpoch"),
        coalesce(col("m.co2Ppm"), lit(Double.NaN)).as("co2Ppm"),
        coalesce(col("m.no2Ugm3"), lit(Double.NaN)).as("no2Ugm3"),
        coalesce(col("m.pm10Ugm3"), lit(Double.NaN)).as("pm10Ugm3"),
        coalesce(col("m.pm25Ugm3"), lit(Double.NaN)).as("pm25Ugm3"),
        coalesce(col("m.tempC"), lit(Double.NaN)).as("tempC"),
        coalesce(col("m.humidityPct"), lit(Double.NaN)).as("humidityPct"),
        coalesce(col("m.pressureHpa"), lit(Double.NaN)).as("pressureHpa"),
        coalesce(col("m.batteryPct"), col("batteryPct")).as("batteryPct"),
        col("qualityFlag"))
  }

  /** Batch driver over a bridge directory of JSON packet files. */
  def batch(spark: SparkSession, inputDir: String, fleet: DataFrame): DataFrame =
    transform(spark.read.schema(Schemas.packetSchema).json(inputDir), fleet)

  /** Keep only rows the validation stage passed. */
  def okOnly(readings: DataFrame): DataFrame =
    readings.where(col("qualityFlag") === Quality.Ok)

  /** Structured Streaming driver: ingest the bridge directory and append OK
    * readings' points, exactly once, through the store's file sink
    * ([[TsdbStore.sink]]). `Trigger.AvailableNow` drains everything currently
    * on the bridge and stops — call repeatedly on one checkpoint for
    * continuous operation. Each micro-batch's new files are listed on the
    * driver, not by a Spark job (see `JobSession.build`).
    */
  def startStream(spark: SparkSession, inputDir: String, checkpointDir: String,
                  store: TsdbStore, fleet: DataFrame,
                  maxFilesPerTrigger: Option[Int] = None): StreamingQuery = {
    val reader = spark.readStream.schema(Schemas.packetSchema)
    maxFilesPerTrigger.foreach(n => reader.option("maxFilesPerTrigger", n))
    val points = TsdbStore.meltReadings(okOnly(transform(reader.json(inputDir), fleet)),
      TsdbStore.StandardMetrics)
    store.sink(points, checkpointDir).trigger(Trigger.AvailableNow()).start()
  }
}
