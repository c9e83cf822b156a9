package repro.core

import org.apache.spark.sql.internal.SQLConf
import repro.SparkSpec
import repro.tsdb.TsdbStore

class PipelineSpec extends SparkSpec {

  private val sf = 0.005

  test("tests run in the jobs' session: one shuffle partition per core, broadcast joins on") {
    assert(spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key) ==
      spark.sparkContext.defaultParallelism.toString)
    val threshold = SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key
    assert(spark.conf.get(threshold) == new SQLConf().getConfString(threshold))
  }

  test("receivedPackets carries duplicates and loss relative to uplinks") {
    val ups = repro.iot.SensorSimulator.uplinks(spark, sf, 7L).count()
    val pkts = Pipeline.receivedPackets(spark, sf, 7L).count()
    assert(pkts > ups, "multi-gateway duplication outweighs loss in dense coverage")
  }

  test("readings equals the ETL transform over received packets") {
    val n1 = Pipeline.readings(spark, sf, 7L).count()
    val frames = Pipeline.receivedPackets(spark, sf, 7L).toDF()
      .select("deviceId", "frameCounter").distinct().count()
    assert(n1 == frames)
  }

  test("writeBridge + ingestBridge lands deduped OK readings in the store") {
    val work = Pipeline.freshWorkDir("pipe-spec")
    val bridge = new java.io.File(work, "bridge").toString
    val store = TsdbStore(new java.io.File(work, "tsdb").toString)
    val n = Pipeline.writeBridge(spark, sf, 7L, bridge)
    Pipeline.ingestBridge(spark, bridge, new java.io.File(work, "chk").toString, store, 7L)
    val stored = store.query(spark, "air.co2", 0, Long.MaxValue).count()
    assert(n > stored && stored > 0)
    val ok = Pipeline.okReadings(spark, sf, 7L).count()
    assert(stored == ok, s"stored=$stored okBatch=$ok")
  }

  test("okReadingsCached memoizes and returns the same DataFrame instance") {
    val a = Pipeline.okReadingsCached(spark, sf, 7L)
    val b = Pipeline.okReadingsCached(spark, sf, 7L)
    assert(a eq b)
    assert(a.storageLevel.useMemory, "memoized frame is Spark-cached")
  }

  test("freshWorkDir creates distinct directories") {
    val a = Pipeline.freshWorkDir("x"); val b = Pipeline.freshWorkDir("x")
    assert(a.exists() && b.exists() && a != b)
  }

  test("outages reduce received packet volume") {
    import repro.lorawan.OutageWindow
    val full = Pipeline.receivedPackets(spark, sf, 7L).count()
    val out = Seq(OutageWindow("gw-trd-1",
      Schemas.EpochStart, Schemas.EpochStart + 86400L))
    val reduced = Pipeline.receivedPackets(spark, sf, 7L, out).count()
    assert(reduced < full)
  }
}
