package repro.core

import java.io.File
import java.nio.file.{Files, Paths}
import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.{Oracle, SparkSpec, TestData}
import repro.core.Schemas.Quality
import repro.iot.SensorFleet
import repro.mqtt.{Broker, FileBridge}
import repro.tsdb.TsdbStore

class StreamingEtlSpec extends SparkSpec {

  private val sf = 0.005
  private lazy val packets = Pipeline.receivedPackets(spark, sf, 7L).toDF().cache()
  private lazy val fleet = SensorFleet.toDF(spark, 7L)
  private lazy val readings = StreamingEtl.transform(packets, fleet).cache()

  /** Asserts that `store` holds exactly the points the batch transform
    * computes over `bridgeDir`: all 8 metrics, compared by value both ways.
    */
  private def assertStoreEqualsBatch(store: TsdbStore, bridgeDir: String): Unit = {
    // Materialised: on Spark 4.1.2, `exceptAll` with this melt plan on its
    // left fails to bind `tsEpoch` (INTERNAL_ERROR_ATTRIBUTE_NOT_FOUND).
    val expected = TsdbStore.meltReadings(
      StreamingEtl.okOnly(StreamingEtl.batch(spark, bridgeDir, fleet)),
      TsdbStore.StandardMetrics).localCheckpoint()
    val stored = store.points(spark)
    assert(stored.select("metric").distinct().count() == 8)
    val (extra, missing) = (stored.exceptAll(expected).count(), expected.exceptAll(stored).count())
    assert(extra == 0 && missing == 0, s"stored points vs batch: $extra extra, $missing missing")
  }

  /** Writes the packets as one JSON file per 6 event-time hours: 8 files
    * over the 2 days, in time order.
    */
  private def writeSlices(bridgeDir: File): Seq[File] = {
    bridgeDir.mkdirs()
    val bySlice = packets
      .select(((col("tsEpoch") - Schemas.EpochStart) / 21600).cast("int"),
        to_json(struct(packets.columns.map(col).toIndexedSeq: _*)))
      .collect().groupMap(_.getInt(0))(_.getString(1))
    assert(bySlice.keySet == (0 until 8).toSet)
    (0 until 8).map { i =>
      val f = new File(bridgeDir, s"slice-$i.json")
      Files.write(f.toPath, bySlice(i).mkString("\n").getBytes)
      f
    }
  }

  /** Every file under `dir` with its size. */
  private def listing(dir: String): Map[String, Long] =
    Files.walk(Paths.get(dir)).iterator().asScala.filter(Files.isRegularFile(_))
      .map(f => f.toString -> Files.size(f)).toMap

  test("duplicates across gateways are collapsed to one reading per frame") {
    val frames = packets.select("deviceId", "frameCounter").distinct().count()
    assert(packets.count() > frames, "radio layer produced duplicates")
    assert(readings.count() == frames)
  }

  test("dedup matches a DuckDB distinct-frame count") {
    import spark.implicits._
    val got = readings.groupBy($"deviceId").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(got,
      """SELECT deviceId, count(*) AS n FROM (
        |  SELECT DISTINCT deviceId, frameCounter FROM pkts
        |) GROUP BY deviceId""".stripMargin,
      "pkts" -> packets.select("deviceId", "frameCounter"))
  }

  test("decoded values round-trip the codec quantization") {
    val r = readings.where(col("qualityFlag") === Quality.Ok).limit(100).collect()
    r.foreach { row =>
      assert(row.getAs[Double]("co2Ppm") > 300)
      assert(row.getAs[Double]("humidityPct") <= 100.0)
    }
  }

  test("all readings are enriched with city and position") {
    assert(readings.where(col("city").isNull || col("lat").isNull).count() == 0)
    assert(readings.select("city").distinct().count() == 2)
  }

  test("quality flags: healthy synthetic data is mostly OK") {
    val total = readings.count()
    val ok = readings.where(col("qualityFlag") === Quality.Ok).count()
    assert(ok.toDouble / total > 0.95, s"ok=$ok/$total")
  }

  test("malformed payloads get DECODE_ERROR, not a crash") {
    val bad = packets.limit(3).withColumn("payloadB64", lit("@@@"))
    val out = StreamingEtl.transform(bad, fleet)
    assert(out.select("qualityFlag").distinct().collect().map(_.getString(0)).toSeq ==
      Seq(Quality.DecodeError))
  }

  test("out-of-range values get RANGE flag") {
    val hot = repro.lorawan.PacketCodec.encode(
      Schemas.Measurement(450, 20, 15, 8, 75.0, 50, 1013, 90)) // temp 75C
    val bad = packets.limit(1).withColumn("payloadB64", lit(hot))
    val out = StreamingEtl.transform(bad, fleet)
    assert(out.head().getAs[String]("qualityFlag") == Quality.RangeViolation)
  }

  test("okOnly removes non-OK rows") {
    assert(StreamingEtl.okOnly(readings).where(col("qualityFlag") =!= Quality.Ok).count() == 0)
  }

  test("transform outputs exactly the reading columns") {
    assert(readings.columns.toSeq == Seq("deviceId", "city", "lat", "lon", "tsEpoch",
      "co2Ppm", "no2Ugm3", "pm10Ugm3", "pm25Ugm3", "tempC", "humidityPct", "pressureHpa",
      "batteryPct", "qualityFlag"))
  }

  test("stream equals batch for any micro-batch split and file order") {
    val work = Files.createTempDirectory("etl-parity").toFile
    val bridgeDir = new File(work, "bridge")
    val files = writeSlices(bridgeDir)

    // The file source takes the oldest file first, so modification times
    // set the order in which slices reach the stream.
    val base = System.currentTimeMillis() - 60000L
    for {
      (order, ranks) <- Seq("time order" -> (0 until 8), "reversed" -> (7 to 0 by -1))
      split <- Seq(Some(1), Some(3), None)
    } {
      files.zip(ranks).foreach { case (f, r) => assert(f.setLastModified(base + r * 2000L)) }
      val run = Files.createTempDirectory(work.toPath, "run").toFile
      val store = TsdbStore(new File(run, "tsdb").toString)
      StreamingEtl.startStream(spark, bridgeDir.toString, new File(run, "chk").toString,
        store, fleet, maxFilesPerTrigger = split).awaitTermination()
      withClue(s"$order, maxFilesPerTrigger=$split: ") {
        assertStoreEqualsBatch(store, bridgeDir.toString)
      }
    }
  }

  test("a replayed micro-batch is stored once") {
    val work = Files.createTempDirectory("etl-replay").toFile
    val bridgeDir = new File(work, "bridge")
    writeSlices(bridgeDir)
    val store = TsdbStore(new File(work, "tsdb").toString)
    val chk = new File(work, "chk")
    def ingest() = {
      val q = StreamingEtl.startStream(spark, bridgeDir.toString, chk.toString, store, fleet,
        maxFilesPerTrigger = Some(3))
      q.awaitTermination()
      q.recentProgress.map(_.batchId).toSeq
    }
    assert(ingest() == Seq(0L, 1L, 2L))
    // A crash after the store write and before the checkpoint's commit leaves
    // the last batch uncommitted: the restarted query runs it again.
    val commits = new File(chk, "commits")
    assert(new File(commits, "2").delete())
    new File(commits, ".2.crc").delete()
    assert(ingest() == Seq(2L))
    assertStoreEqualsBatch(store, bridgeDir.toString)
  }

  test("a frame-counter reset keeps every reading, in batch and in stream") {
    // A browned-out solar node (Fig 4) restarts its frame counter at 0 on the
    // second day, so its new frames reuse the counters of its first day's.
    val device = SensorFleet.nodes(7L).head.deviceId
    val day1 = Schemas.EpochStart + 86400L
    val afterReset = col("deviceId") === device && col("tsEpoch") >= day1
    val fc0 = packets.where(afterReset).agg(min("frameCounter")).head().getLong(0)
    val reset = packets.withColumn("frameCounter",
      when(afterReset, col("frameCounter") - fc0).otherwise(col("frameCounter")))
    val frames = readings.count()
    assert(reset.select("deviceId", "frameCounter").distinct().count() < frames, "counters collide")

    val work = Files.createTempDirectory("etl-reset").toFile
    val bridgeDir = new File(work, "bridge"); bridgeDir.mkdirs()
    Seq(col("tsEpoch") < day1, col("tsEpoch") >= day1).zipWithIndex.foreach { case (day, i) =>
      Files.write(new File(bridgeDir, s"day-$i.json").toPath,
        reset.where(day).toJSON.collect().mkString("\n").getBytes)
    }
    assert(StreamingEtl.batch(spark, bridgeDir.toString, fleet).count() == frames)
    val store = TsdbStore(new File(work, "tsdb").toString)
    StreamingEtl.startStream(spark, bridgeDir.toString, new File(work, "chk").toString,
      store, fleet, maxFilesPerTrigger = Some(1)).awaitTermination()
    assertStoreEqualsBatch(store, bridgeDir.toString)
  }

  /** A store the file sink filled from a small bridge, with its checkpoint. */
  private lazy val sinkStore = {
    val work = Files.createTempDirectory("etl-owned").toFile
    val bridgeDir = new File(work, "bridge"); bridgeDir.mkdirs()
    Files.write(new File(bridgeDir, "a.json").toPath,
      packets.limit(200).toJSON.collect().mkString("\n").getBytes)
    val store = TsdbStore(new File(work, "tsdb").toString)
    StreamingEtl.startStream(spark, bridgeDir.toString, new File(work, "chk").toString,
      store, fleet).awaitTermination()
    assert(store.points(spark).count() > 0)
    (work, bridgeDir.toString, store)
  }

  test("a new checkpoint over a store the sink wrote is refused, the store unchanged") {
    val (work, bridgeDir, store) = sinkStore
    val before = listing(store.path)
    val e = intercept[IllegalArgumentException] {
      StreamingEtl.startStream(spark, bridgeDir, new File(work, "chk-new").toString, store, fleet)
    }
    assert(e.getMessage.contains("is new"))
    assert(listing(store.path) == before)
  }

  test("a put into a store the sink wrote is refused") {
    val (_, _, store) = sinkStore
    val before = listing(store.path)
    val points = store.points(spark).localCheckpoint()
    val e = intercept[IllegalArgumentException](store.put(points))
    assert(e.getMessage.contains("streaming query"))
    assert(listing(store.path) == before)
  }

  test("a micro-batch of more than 32 bridge files is listed on the driver") {
    val work = Files.createTempDirectory("etl-files").toFile
    val bridgeDir = new File(work, "bridge")
    val broker = new Broker
    // 2 000 packets at 40 a file: 50 files, over Spark's default threshold
    // of 32 paths for listing them with a parallel job.
    val bridge = new FileBridge(broker, "ctt/up/#", bridgeDir, rollEvery = 40)
    packets.limit(2000).toJSON.collect().foreach(j => broker.publish("ctt/up/x", j))
    bridge.close()
    assert(bridgeDir.list().count(_.startsWith("bridge_")) == 50)

    val descriptions = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        descriptions.add(Option(e.properties)
          .flatMap(p => Option(p.getProperty("spark.job.description")))
          .getOrElse(""))
    }
    val sc = spark.sparkContext
    val store = TsdbStore(new File(work, "tsdb").toString)
    sc.addSparkListener(listener)
    try {
      StreamingEtl.startStream(spark, bridgeDir.toString,
        new File(work, "chk").toString, store, fleet).awaitTermination()
      // The bus delivers events in order: once the sentinel is seen, so is
      // every job of the query.
      sc.setJobDescription("sentinel")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      eventually(timeout(Span(30, Seconds))) { assert(descriptions.contains("sentinel")) }
    } finally sc.removeSparkListener(listener)
    val listings = descriptions.asScala.filter(_.startsWith("Listing leaf files and directories"))
    assert(listings.isEmpty, s"listing jobs: ${listings.mkString("; ")}")

    assertStoreEqualsBatch(store, bridgeDir.toString)
  }

  test("a second ingest pass on one checkpoint compiles no generated class") {
    val work = Files.createTempDirectory("etl-codegen").toFile
    val bridgeDir = new File(work, "bridge"); bridgeDir.mkdirs()
    val chk = new File(work, "chk").toString
    val store = TsdbStore(new File(work, "tsdb").toString)
    def writeDay(day: Int): Unit = {
      val from = Schemas.EpochStart + day * 86400L
      val json = packets.where(col("tsEpoch") >= from && col("tsEpoch") < from + 86400L)
        .toJSON.collect()
      assert(json.nonEmpty)
      Files.write(new File(bridgeDir, s"day-$day.json").toPath, json.mkString("\n").getBytes)
    }
    writeDay(0)
    Pipeline.ingestBridge(spark, bridgeDir.toString, chk, store)
    writeDay(1)
    // Each compile of a generated class, on the driver or in a task, adds one
    // sample; a cache hit adds none.
    val compiles = CodegenMetrics.METRIC_COMPILATION_TIME
    val before = compiles.getCount
    Pipeline.ingestBridge(spark, bridgeDir.toString, chk, store)
    assert(compiles.getCount - before == 0, "classes compiled by the second pass")
    assertStoreEqualsBatch(store, bridgeDir.toString)
  }

  test("streaming dedups across micro-batch file boundaries") {
    val work = Files.createTempDirectory("etl-dup").toFile
    val bridgeDir = new File(work, "bridge"); bridgeDir.mkdirs()
    // The same 100 packets written twice into separate files.
    val slice = packets.limit(100).toJSON.collect()
    Files.write(new File(bridgeDir, "a.json").toPath,
      slice.mkString("\n").getBytes)
    Files.write(new File(bridgeDir, "b.json").toPath,
      slice.mkString("\n").getBytes)
    val store = TsdbStore(new File(work, "tsdb").toString)
    val q = StreamingEtl.startStream(spark, bridgeDir.toString,
      new File(work, "chk").toString, store, fleet)
    q.awaitTermination()
    val distinctFrames = packets.limit(100)
      .select("deviceId", "frameCounter").distinct().count()
    assert(store.query(spark, "air.co2", 0, Long.MaxValue).count() == distinctFrames)
  }

  test("streaming dedup keeps one state row per frame, not one per metric") {
    val work = Files.createTempDirectory("etl-state").toFile
    val bridgeDir = new File(work, "bridge").toString
    Pipeline.writeBridge(spark, sf, 7L, bridgeDir)
    val store = TsdbStore(new File(work, "tsdb").toString)
    val q = StreamingEtl.startStream(spark, bridgeDir,
      new File(work, "chk").toString, store, fleet)
    q.awaitTermination()
    val batches = q.recentProgress.filter(_.numInputRows > 0)
    assert(batches.length == 1)
    val frames = spark.read.schema(Schemas.packetSchema).json(bridgeDir)
      .select("deviceId", "frameCounter").distinct().count()
    // A batch plan that re-ran dedup once per metric would count every
    // frame once per run.
    val state = batches.head.stateOperators.map(_.numRowsTotal)
    assert(state.toSeq == Seq(frames), s"state rows per operator: ${state.mkString(", ")}")
  }

  test("TestData fixture: OK readings flow end to end at SF=0.01") {
    assert(TestData.readings.count() > 10000)
  }
}
