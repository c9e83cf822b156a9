package repro.core

import java.io.File
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.Schemas.{ReceivedPacket, Uplink}
import repro.iot.{SensorFleet, SensorSimulator}
import repro.lorawan.{OutageWindow, RadioNetwork}
import repro.tsdb.TsdbStore

/** End-to-end wiring of Fig 1: sensor simulation → LoRaWAN radio →
  * MQTT/file bridge → Structured Streaming ETL → time-series store.
  */
object Pipeline {

  /** Packets received by the backbone at a scale factor (no files involved). */
  def receivedPackets(spark: SparkSession, sf: Double, seed: Long = 7L,
                      outages: Seq[OutageWindow] = Seq.empty): Dataset[ReceivedPacket] = {
    val ups: Dataset[Uplink] = SensorSimulator.uplinks(spark, sf, seed)
    RadioNetwork.transmit(spark, ups, RadioNetwork.gateways, outages, seed, seed)
  }

  /** Batch readings at a scale factor: simulate, transmit, run the ETL
    * transform in memory — the fast path for analytics tests.
    */
  def readings(spark: SparkSession, sf: Double, seed: Long = 7L): DataFrame =
    StreamingEtl.transform(receivedPackets(spark, sf, seed).toDF(),
      SensorFleet.toDF(spark, seed))

  /** Validated readings only — most analytics start here. */
  def okReadings(spark: SparkSession, sf: Double, seed: Long = 7L): DataFrame =
    StreamingEtl.okOnly(readings(spark, sf, seed))

  private val readingsMemo =
    scala.collection.mutable.Map.empty[(Double, Long), DataFrame]

  /** Memoized, Spark-cached [[okReadings]]: typed simulator plans do not
    * canonicalize equal across constructions, so the CacheManager cannot
    * share them — several table harnesses over the same (sf, seed) would
    * otherwise re-simulate the fleet.
    */
  def okReadingsCached(spark: SparkSession, sf: Double, seed: Long = 7L): DataFrame =
    readingsMemo.synchronized {
      readingsMemo.getOrElseUpdate((sf, seed), {
        val df = okReadings(spark, sf, seed).cache()
        df.count()
        df
      })
    }

  /** Materialize the bridge directory the production MQTT forwarder would
    * fill: received packets as JSON-lines files. Returns the packet count.
    */
  def writeBridge(spark: SparkSession, sf: Double, seed: Long, bridgeDir: String): Long = {
    val packets = receivedPackets(spark, sf, seed).toDF().cache()
    val n = packets.count()
    packets.write.mode("overwrite").json(bridgeDir)
    packets.unpersist()
    n
  }

  /** Drain the bridge directory through Structured Streaming into the store,
    * each file once per checkpoint (see [[TsdbStore.sink]]); blocks until
    * the AvailableNow query finishes.
    */
  def ingestBridge(spark: SparkSession, bridgeDir: String, checkpointDir: String,
                   store: TsdbStore, seed: Long = 7L): Unit = {
    val q = StreamingEtl.startStream(spark, bridgeDir, checkpointDir, store,
      SensorFleet.toDF(spark, seed))
    q.awaitTermination()
  }

  /** Create a fresh working directory under the system temp root. */
  def freshWorkDir(tag: String): File = {
    val dir = new File(System.getProperty("java.io.tmpdir"),
      s"ctt-$tag-${System.nanoTime()}")
    require(dir.mkdirs(), s"cannot create $dir")
    dir
  }
}
