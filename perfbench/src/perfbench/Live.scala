package perfbench

import java.io.File
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Pipeline, Schemas, StreamingEtl}
import repro.iot.{SensorFleet, SensorSimulator}
import repro.lorawan.{OutageWindow, RadioNetwork}
import repro.mqtt.{Broker, FileBridge}
import repro.tables.Table6Monitoring
import repro.tsdb.TsdbStore
import repro.twin.Dataport
import repro.twin.DataportProtocol._

/** `live`: T6's fault scenario replayed as a live feed. One generator
  * thread publishes each 20-minute slice through the MQTT broker on a fixed
  * wall-clock schedule (open loop); a file bridge (one file per slice) and
  * the dataport's digital twins subscribe. The main thread runs streaming
  * ingestion passes on one checkpoint and one store, as in continuous
  * operation, until every slice is stored; then one client queries the
  * Fig 6 panels over that store. The set-up ends with an ingest pass over
  * the first slices into a store of its own, so the timed passes run in a
  * warm JVM.
  *
  * Traced, the run also drains the whole bridge in one bulk pass into a
  * fresh store and runs the batch comparator over it. With `baseline`, only
  * the set-up and that bulk pass run: in a `local[1]` JVM this gives the
  * single-thread baseline.
  */
final class Live(c: Ctx, streams: StreamCollector, baseline: Boolean) extends Workload {
  import Live._
  private val spark = c.spark
  private val sf = Days / Schemas.DaysPerSf
  private val endEpoch = Schemas.EpochStart + Days * 86400L
  private val nSlices = (Days * 86400L / SliceSec).toInt
  private val outages = Seq(OutageWindow(Table6Monitoring.OutGateway,
    Table6Monitoring.outageStart, Table6Monitoring.outageEnd))
  private val bridge = new File(c.dir("bridge"))
  private val staging = new File(c.dir("staging"))
  private val chk = c.dir("chk")
  private val store = TsdbStore(c.dir("tsdb"))

  /** Per slice: (JSON payload, packet metadata), in event-time order. */
  private var slices: IndexedSeq[Array[(String, PacketMeta)]] = IndexedSeq.empty
  private var dp: Dataport = _
  private var publishedPackets = 0L
  private var fresh = Seq.empty[Double]
  private var passes = Seq.empty[Double]
  private var lateS = Seq.empty[Double]
  private var periodS = 0.0
  private var bulkS = Double.NaN
  private val panels = new Panels(c, store, endEpoch)
  /** Uplinks the nodes sent, kept from the last scenario build for the ledger. */
  private var sent: DataFrame = _

  private def uplinks() = {
    val dead = Table6Monitoring.DeadDevice
    val death = Table6Monitoring.deathTime
    SensorSimulator.uplinks(spark, sf, c.seed)
      .filter(u => !(u.deviceId == dead && u.tsEpoch >= death))
  }

  def setUp(): Unit = {
    val reps = if (baseline) 1 else SetupReps
    c.setUpReps(reps)(c.span("setup.scenario")(scenario()))
    warmUp()
  }

  /** An ingest pass over the first slices, on a checkpoint and a store of
    * its own: the JVM's first streaming query spends most of its time
    * compiling, and the timed passes should not.
    */
  private def warmUp(): Unit = c.span("setup.warm_up") {
    val dir = new File(c.dir("warmup-bridge"))
    writeSlices(dir, 0 until WarmSlices)
    c.span("core.warm_up_pass")(Pipeline.ingestBridge(spark, dir.getPath, c.dir("warmup-chk"),
      TsdbStore(c.dir("warmup-tsdb")), c.seed))
    Seq("warmup-bridge", "warmup-chk", "warmup-tsdb").foreach(d =>
      org.apache.commons.io.FileUtils.deleteDirectory(new File(c.dir(d))))
  }

  /** Writes slice files straight to a bridge directory, as the forwarder
    * would have left them.
    */
  private def writeSlices(dir: File, range: Range): Unit = {
    require(dir.isDirectory || dir.mkdirs(), s"cannot create $dir")
    range.filter(slices(_).nonEmpty).foreach { i =>
      val w = new java.io.PrintWriter(new File(dir, f"slice-$i%03d.json"), "UTF-8")
      try slices(i).foreach { case (json, _) => w.println(json) } finally w.close()
    }
  }

  /** One streaming pass over a bridge into a fresh store. */
  private def bulkPass(from: File, tag: String): Double = Stats.time(c.span("core.bulk_pass")(
    Pipeline.ingestBridge(spark, from.getPath, c.dir(s"$tag-chk"), TsdbStore(c.dir(s"$tag-tsdb")), c.seed)))._2

  /** The scenario's received packets, sorted as T6 replays them and cut
    * into slices; traced, simulation and radio are timed apart.
    */
  private def scenario(): Unit = {
    Option(sent).foreach(_.unpersist())
    val ups = c.span("iot.simulate") {
      val u = uplinks().cache(); if (c.traced) u.count(); u
    }
    sent = ups.toDF()
    val pk = c.span("lorawan.transmit") {
      val p = RadioNetwork.transmit(spark, ups, RadioNetwork.gateways, outages, c.seed, c.seed)
        .toDF().cache()
      if (c.traced) p.count()
      p
    }
    val rows = c.span("mqtt.payloads")(pk.select(to_json(struct(pk.columns.map(col).toIndexedSeq: _*)),
      col("deviceId"), col("gatewayId"), col("frameCounter"), col("tsEpoch"), col("rssi"),
      col("batteryPct"), col("intervalMin")).collect())
    if (c.traced) {
      val frames = pk.select("deviceId", "frameCounter").distinct().count()
      c.layer ++= Seq("iot.uplinks" -> ups.count().toDouble, "lorawan.packets" -> rows.length.toDouble,
        "lorawan.frames_lost" -> (ups.count() - frames).toDouble,
        "lorawan.copies_per_frame" -> rows.length.toDouble / frames)
    }
    pk.unpersist()
    val metas = rows.map(r => (r.getString(0), PacketMeta(r.getString(1), r.getString(2),
      r.getLong(3), r.getLong(4), r.getDouble(5), r.getDouble(6), r.getInt(7))))
      .sortBy { case (_, p) => (p.tsEpoch, p.deviceId, p.gatewayId) }
    val bySlice = metas.groupBy { case (_, p) => ((p.tsEpoch - Schemas.EpochStart) / SliceSec).toInt }
    slices = (0 until nSlices).map(i => bySlice.getOrElse(i, Array.empty[(String, PacketMeta)]))
  }

  def measure(): Unit = {
    if (baseline) {
      writeSlices(bridge, slices.indices)
      c.e2e("pass_s") = bulkPass(bridge, "bulk")
      return
    }
    val broker = new Broker
    dp = new Dataport(SensorFleet.nodes(c.seed), RadioNetwork.gateways)
    val mapper = new ObjectMapper()
    var twinNs = 0L
    var publishNs = 0L
    // The dataport service: parses each uplink message into packet metadata
    // and drives the twins' clock from the backend's clock topic.
    broker.subscribe("ctt/#") { (topic, payload) =>
      val t0 = System.nanoTime()
      c.span("twin.dispatch") {
        if (topic == ClockTopic) {
          val t = payload.toLong
          dp.heartbeat(t); dp.tick(t)
        } else {
          val n = mapper.readTree(payload)
          dp.ingest(PacketMeta(n.get("deviceId").asText, n.get("gatewayId").asText,
            n.get("frameCounter").asLong, n.get("tsEpoch").asLong, n.get("rssi").asDouble,
            n.get("batteryPct").asDouble, n.get("intervalMin").asInt))
        }
      }
      twinNs += System.nanoTime() - t0
    }
    require(bridge.mkdirs() && staging.mkdirs(), s"cannot create $bridge")

    periodS = c.seconds / nSlices
    val due = Array.tabulate(nSlices)(i => (i * periodS * 1e9).toLong)
    val late = new Array[Double](nSlices)
    val completed = new AtomicInteger(0)
    @volatile var genError: Throwable = null
    val t0 = System.nanoTime()
    val gen: Thread = new Thread(() => try c.span("live.generator", req = 0L) {
      var nextTick = Schemas.EpochStart + TickSec
      def clockTo(t: Long): Unit = while (nextTick <= t) {
        broker.publish(ClockTopic, nextTick.toString); nextTick += TickSec
      }
      slices.indices.foreach { i =>
        val wait = t0 + due(i) - System.nanoTime()
        if (wait > 0) Thread.sleep(wait / 1000000L, (wait % 1000000L).toInt)
        late(i) = math.max(0L, System.nanoTime() - t0 - due(i)) / 1e9
        val ps = System.nanoTime()
        c.span("mqtt.publish", req = i.toLong + 1) {
          val dir = new File(staging, f"slice-$i%03d")
          val fb = new FileBridge(broker, "ctt/uplink/#", dir, rollEvery = Int.MaxValue)
          slices(i).foreach { case (json, p) =>
            clockTo(p.tsEpoch)
            broker.publish(s"ctt/uplink/${p.deviceId}", json)
          }
          if (i == nSlices - 1) clockTo(endEpoch)
          fb.close()
        }
        publishNs += System.nanoTime() - ps
        completed.set(i + 1)
      }
    } catch { case e: Throwable => genError = e }, "perfbench-generator")
    // The generator is the load, not the system: its CPU is left out.
    c.cpu.exclude(gen)
    val cpuFrom = c.cpu.mark()
    gen.start()

    val storedAt = Array.fill(nSlices)(-1L)
    val consumed = mutable.Set.empty[Int]
    val forwarded = mutable.Set.empty[Int]
    val passTimes = mutable.ArrayBuffer.empty[Double]
    val passCpu = mutable.ArrayBuffer.empty[Double]
    val deadline = t0 + ((c.seconds + DrainSeconds) * 1e9).toLong
    val nonEmpty = slices.indices.filter(i => slices(i).nonEmpty).toSet
    var backlogMax = 0
    val seen = streams.runIds
    // Passes start on a fixed cadence, the way Trigger.ProcessingTime starts
    // micro-batches: at each multiple of the interval from the schedule's
    // start, or at once when the previous pass overran its slot. The pass of
    // the last slot waits for the last slice, so the number of passes does
    // not depend on the host's speed.
    val every = (periodS * nSlices / Passes * 1e9).toLong
    var slot = 1L
    while (!nonEmpty.subsetOf(consumed) && System.nanoTime() < deadline && genError == null) {
      val wait = t0 + slot * every - System.nanoTime()
      if (wait > 0) c.span("idle.next_slot")(Thread.sleep(wait / 1000000L, (wait % 1000000L).toInt))
      if (slot >= Passes) c.span("idle.last_slice")(gen.join())
      slot += 1
      // The forwarder hands every finished slice file to the bridge directory
      // as the pass starts, so a pass stores exactly the slices that were out
      // at its slot, however long the JVM takes to list the directory.
      (0 until completed.get).filter(i => nonEmpty(i) && !forwarded(i)).foreach { i =>
        Option(new File(staging, f"slice-$i%03d").listFiles).toSeq.flatten.foreach(f =>
          require(f.renameTo(new File(bridge, f"slice-$i%03d.json")), s"cannot move $f"))
        forwarded += i
      }
      val pending = forwarded.count(i => !consumed(i))
      if (pending > 0) {
        backlogMax = math.max(backlogMax, pending)
        val (ps, cpu0) = (System.nanoTime(), Stats.cpuSeconds())
        c.attempt("ingest pass")(c.span("core.ingest_pass", req = passTimes.size + 1L)(
          Pipeline.ingestBridge(spark, bridge.getPath, chk, store, c.seed)))
        val pe = System.nanoTime()
        passTimes += (pe - ps) / 1e9
        passCpu += Stats.cpuSeconds() - cpu0
        consumedSlices().diff(consumed).foreach { i => storedAt(i) = pe - t0; consumed += i }
      }
    }
    gen.join()
    val (threadsRaw, slowdown) = c.cpu.since(cpuFrom)
    if (genError != null) c.count("generator", 1, 1, genError.toString)
    c.count("slices stored", nonEmpty.size, (nonEmpty -- consumed).size)

    fresh = nonEmpty.toSeq.sorted.filter(storedAt(_) >= 0).map(i => (storedAt(i) - due(i)) / 1e9)
    passes = passTimes.toSeq
    lateS = late.toSeq
    publishedPackets = slices.map(_.length.toLong).sum
    panels.closedLoop(Panels)
    c.e2e ++= Seq("pass_s" -> Stats.median(passes), "pass_cpu_s" -> Stats.median(passCpu.toSeq),
      // From the first slice to the last pass: the ingest passes, and the
      // query and listener work between them.
      "thread_cpu_s" -> threadsRaw / slowdown, "thread_cpu_raw_s" -> threadsRaw,
      "latency_p50_ms" -> Stats.median(fresh) * 1000, "latency_p90_ms" -> Stats.quantile(fresh, 0.9) * 1000)
    val files = Option(bridge.listFiles).toSeq.flatten.count(_.getName.endsWith(".json"))
    c.layer ++= Seq("mqtt.publish_s" -> publishNs / 1e9, "mqtt.messages" -> broker.publishedCount.toDouble,
      "mqtt.files" -> files.toDouble, "mqtt.backlog_files_max" -> backlogMax.toDouble,
      "mqtt.gen_late_p90_s" -> Stats.quantile(lateS, 0.9),
      "twin.busy_s" -> twinNs / 1e9, "twin.messages" -> dp.system.delivered.toDouble,
      "twin.dead_letters" -> dp.system.deadLetters.toDouble, "twin.alarms" -> dp.alarms.size.toDouble,
      "twin.msgs_per_packet" -> dp.system.delivered.toDouble / math.max(1L, publishedPackets))
    val behind = Stats.quantile(lateS, 0.9) > periodS
    // Below the sustainable rate, every pass but the last ends before the
    // next slot, so the backlog never carries over.
    val kept = passes.init.forall(_ <= every / 1e9)
    c.record ++= Seq("live_schedule" -> Seq("slices" -> nSlices, "slice_event_s" -> SliceSec,
      "period_s" -> periodS, "packets" -> publishedPackets).toMap,
      "gen_late_p90_s" -> Stats.quantile(lateS, 0.9), "generator_behind_schedule" -> behind,
      "pass_times_s" -> passes, "pass_cpu_times_s" -> passCpu.toList,
      "pass_every_s" -> every / 1e9, "passes_within_slot" -> kept, "sf" -> sf)
    if (c.traced) StreamStats.fill(c, passes.zip(streams.runsSince(seen, passes.size)))
  }

  /** Slices the checkpoint's file-source log says were read. */
  private def consumedSlices(): Set[Int] = {
    val log = new File(chk, "sources/0")
    val Slice = """slice-(\d+)\.json""".r
    Option(log.listFiles).toSeq.flatten.filter(f => f.isFile && !f.getName.startsWith(".")).flatMap { f =>
      val src = scala.io.Source.fromFile(f, "UTF-8")
      try Slice.findAllMatchIn(src.mkString).map(_.group(1).toInt).toList finally src.close()
    }.toSet
  }

  def verify(): Unit = {
    if (baseline) return
    if (c.traced) StoreStats.fill(c, store)
    Checks.ingest(c, sent, bridge.getPath, s"$bridge/slice-*.json", store)
    panels.checkWithOracle()
    c.span("check.dataport") {
      import Table6Monitoring._
      val alarms = dp.alarms
      val classified = dp.classifiedAlarms
      c.check("dataport: dead sensor detected")(alarms.exists {
        case a: SensorDown => a.deviceId == DeadDevice && a.tsEpoch > deathTime; case _ => false })
      c.check("dataport: dead sensor classified sensor-failure")(
        classified.find(a => a.deviceId == DeadDevice && a.tsEpoch > deathTime)
          .exists(_.cause == "sensor-failure"))
      c.check("dataport: gateway outage detected")(alarms.exists {
        case a: GatewayDown => a.gatewayId == OutGateway && a.tsEpoch > outageStart; case _ => false })
      c.check(s"dataport: $ExclusiveDevice classified gateway-outage")(
        classified.find(a => a.deviceId == ExclusiveDevice && a.tsEpoch >= outageStart &&
          a.tsEpoch <= outageEnd + 3600).exists(_.cause == "gateway-outage"))
      c.check(s"dataport: $ExclusiveDevice recovers")(alarms.exists {
        case r: SensorRecovered => r.deviceId == ExclusiveDevice && r.tsEpoch >= outageEnd; case _ => false })
    }
    if (c.traced) compareWithBatch()
  }

  /** Like-for-like batch comparator: the same transform and store write as
    * the stream's, over the same bridge, as a batch job into another store.
    */
  private def compareWithBatch(): Unit = {
    bulkS = bulkPass(bridge, "bulk")
    val fleet = SensorFleet.toDF(spark, c.seed)
    val (ok, transformS) = Stats.time(c.span("core.batch_transform") {
      val r = StreamingEtl.okOnly(StreamingEtl.batch(spark, bridge.getPath, fleet)).cache(); r.count(); r
    })
    val putS = Stats.time(c.span("tsdb.batch_put")(
      TsdbStore(c.dir("batch-tsdb")).put(TsdbStore.meltReadings(ok, TsdbStore.StandardMetrics))))._2
    ok.unpersist()
    c.layer ++= Seq("core.bulk_pass_s" -> bulkS, "core.batch_transform_s" -> transformS,
      "tsdb.batch_put_s" -> putS, "core.stream_over_batch" -> bulkS / (transformS + putS))
    c.record("live_passes_over_batch") = passes.sum / (transformS + putS)
  }

  def report(): Unit = {
    if (baseline) {
      println(f"metric bulk_pass_s              ${c.e2e("pass_s")}%.3f s (${c.spark.sparkContext.master})")
      return
    }
    val ms = panels.done.map(_._2).toSeq
    println(f"metric ingest_pkts_per_s        ${publishedPackets / passes.sum}%.1f packets/s " +
      f"($publishedPackets packets over ${passes.size} passes)")
    println(f"metric panel_p50_ms             ${Stats.median(ms)}%.3f ms (${ms.size} requests)")
    println(f"metric panel_p90_ms             ${Stats.quantile(ms, 0.9)}%.3f ms")
    println(f"metric fresh_p50_s              ${Stats.median(fresh)}%.3f s (${fresh.size} slices)")
    println(f"metric fresh_p90_s              ${Stats.quantile(fresh, 0.9)}%.3f s")
    println(f"live schedule: $nSlices slices of ${SliceSec / 60} min, one every $periodS%.4f s, " +
      f"$publishedPackets packets, ${passes.size} passes, one every ${c.record("pass_every_s")} s, " +
      f"generator late p90 ${Stats.quantile(lateS, 0.9)}%.4f s")
    if (c.record.get("generator_behind_schedule").contains(true))
      println("WARNING: the generator fell behind its schedule; freshness includes its lag")
    if (c.record.get("passes_within_slot").contains(false))
      println("WARNING: an ingest pass overran its slot; the feed ran above the sustainable rate")
  }
}

object Live {
  /** T6's scenario, shortened to the 2 days that hold both faults. */
  val Days = 2
  val SliceSec = 20 * 60L
  val TickSec = 300L
  val ClockTopic = "ctt/clock"
  /** Scenario builds in set-up; the first, cold one is not counted. */
  val SetupReps = 3
  /** Slices the warm-up pass ingests. */
  val WarmSlices = 4
  /** How long the ingest loop may run past the end of the schedule. */
  val DrainSeconds = 60.0
  /** Ingestion passes over the schedule, one at the end of each equal part. */
  val Passes = 2
  /** Panel requests after the drain: one client, closed loop. */
  val Panels = 6
}
