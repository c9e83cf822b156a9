package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.{Pipeline, StreamingEtl}
import repro.iot.SensorFleet
import repro.tsdb.TsdbStore

/** The "flexible and scalable" ingestion claim measured: Structured
  * Streaming end-to-end throughput over the bridge (decode + validate +
  * dedup + enrich + melt + store) vs a batch job doing the same work over
  * the same files into a store of its own, with exactly-once parity checked
  * point by point between the two stores.
  */
object Table7Throughput {

  final case class Result(
      packetsOnBridge: Long,
      streamElapsedSec: Double, streamRowsPerSec: Double,
      batchElapsedSec: Double, batchRowsPerSec: Double,
      storedPoints: Long, batchPoints: Long, mismatchedPoints: Long, parity: Boolean,
      rendered: String)

  def compute(spark: SparkSession, sf: Double, seed: Long = 7L): Result = {
    val work = Pipeline.freshWorkDir("t7")
    val bridge = new java.io.File(work, "bridge").toString
    val checkpoint = new java.io.File(work, "chk").toString
    val store = TsdbStore(new java.io.File(work, "tsdb").toString)
    val batchStore = TsdbStore(new java.io.File(work, "batch-tsdb").toString)

    val nPackets = Pipeline.writeBridge(spark, sf, seed, bridge)

    val t0 = System.nanoTime()
    Pipeline.ingestBridge(spark, bridge, checkpoint, store, seed)
    val streamSec = (System.nanoTime() - t0) / 1e9

    val t1 = System.nanoTime()
    batchStore.put(TsdbStore.meltReadings(
      StreamingEtl.okOnly(StreamingEtl.batch(spark, bridge, SensorFleet.toDF(spark, seed))),
      TsdbStore.StandardMetrics))
    val batchSec = (System.nanoTime() - t1) / 1e9

    val streamed = store.points(spark).cache()
    val batched = batchStore.points(spark).cache()
    val stored = streamed.count()
    val batchPoints = batched.count()
    val mismatched = streamed.exceptAll(batched).count() + batched.exceptAll(streamed).count()
    Seq(streamed, batched).foreach(_.unpersist())
    val parity = mismatched == 0

    Result(
      nPackets,
      streamSec, nPackets / streamSec,
      batchSec, nPackets / batchSec,
      stored, batchPoints, mismatched, parity,
      TableFmt.render(f"Streaming ingestion throughput, SF=$sf%.2f",
        Seq("Metric", "Value"),
        Seq(
          Seq("packets on bridge", nPackets.toString),
          Seq("stream elapsed (s)", TableFmt.fmt(streamSec)),
          Seq("stream packets/s", TableFmt.fmt(nPackets / streamSec)),
          Seq("batch elapsed (s)", TableFmt.fmt(batchSec)),
          Seq("batch packets/s", TableFmt.fmt(nPackets / batchSec)),
          Seq("points stored (stream)", stored.toString),
          Seq("points stored (batch)", batchPoints.toString),
          Seq("points differing", mismatched.toString),
          Seq("stream/batch parity", parity.toString))))
  }
}
