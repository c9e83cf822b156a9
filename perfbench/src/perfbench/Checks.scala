package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.core.{Schemas, StreamingEtl}
import repro.core.Schemas.Quality
import repro.iot.SensorFleet
import repro.tsdb.TsdbStore

/** The correctness gate of a store that streaming ingestion filled. */
object Checks {

  /** Compares a store filled by streaming ingestion with the batch
    * reference over the same bridge, and balances the row ledger.
    *
    * `uplinks` are the uplinks the nodes sent (before the radio);
    * `bridge` is the directory the streaming query read, `bridgeFiles` a
    * glob of its data files.
    */
  def ingest(c: Ctx, uplinks: DataFrame, bridge: String, bridgeFiles: String,
             store: TsdbStore): Unit = {
    val spark = c.spark
    val packets = spark.read.schema(Schemas.packetSchema).json(bridge).cache()
    val reference = c.span("check.reference") {
      val r = StreamingEtl.batch(spark, bridge, SensorFleet.toDF(spark, c.seed)).cache()
      r.count()
      r
    }
    val stored = spark.read.parquet(store.path).select(TsdbStore.PointColumns.map(col): _*).cache()
    try {
      val expected = c.span("check.ledger") {
        val frames = packets.select("deviceId", "frameCounter").distinct()
        val nUplinks = uplinks.count()
        val nPackets = packets.count()
        val received = frames.count()
        val lost = uplinks.select("deviceId", "frameCounter")
          .join(frames, Seq("deviceId", "frameCounter"), "left_anti").count()
        val byFlag = reference.groupBy("qualityFlag").count().collect()
          .map(r => r.getString(0) -> r.getLong(1)).toMap.withDefaultValue(0L)
        val ok = byFlag(Quality.Ok)
        val expected = ok * TsdbStore.StandardMetrics.size
        val nStored = stored.count()
        c.layer ++= Seq("ledger.uplinks" -> nUplinks, "ledger.frames_received" -> received,
          "ledger.frames_lost" -> lost, "ledger.packets" -> nPackets,
          "ledger.readings_ok" -> ok, "ledger.readings_range" -> byFlag(Quality.RangeViolation),
          "ledger.readings_decode_error" -> byFlag(Quality.DecodeError),
          "ledger.points_expected" -> expected, "ledger.points_stored" -> nStored)
          .map { case (k, v) => k -> v.toDouble }
        c.check("ledger: uplinks = frames received + frames lost")(nUplinks == received + lost)
        c.check("ledger: frames received = readings by quality flag")(
          received == byFlag.values.sum && byFlag.keySet.subsetOf(
            Set(Quality.Ok, Quality.RangeViolation, Quality.DecodeError)))
        c.check("ledger: points stored = 8 x OK readings")(nStored == expected)
        expected
      }

      c.span("check.points") {
        // The reference holds 8 points per OK reading: `expected` of them.
        val ref = TsdbStore.meltReadings(StreamingEtl.okOnly(reference), TsdbStore.StandardMetrics)
        val missing = ref.exceptAll(stored).count()
        val extra = stored.exceptAll(ref).count()
        c.count("stored points vs batch reference", expected, missing + extra,
          s"$missing missing, $extra extra")
      }

      c.span("check.oracle_frames") {
        c.check("distinct frames per device vs DuckDB") {
          // DuckDB parses the bridge files itself.
          Oracle.assertEquivalent(
            reference.groupBy("deviceId").agg(count(lit(1)).as("frames")),
            "SELECT deviceId, COUNT(DISTINCT frameCounter) AS frames " +
              s"FROM read_json_auto('$bridgeFiles', format = 'newline_delimited') GROUP BY deviceId")
          true
        }
      }
    } finally {
      Seq(reference, packets, stored).foreach(_.unpersist())
    }
  }
}
