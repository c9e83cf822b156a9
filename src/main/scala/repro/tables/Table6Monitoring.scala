package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.Schemas
import repro.iot.SensorFleet
import repro.lorawan.{OutageWindow, RadioNetwork}
import repro.twin.{Dataport, DataportProtocol}

/** §2.3 (Fig 3/8) as a table: fault-injection into the radio simulation and
  * measurement of the dataport's detection behaviour — sensor-failure
  * detection latency, gateway-outage detection latency, the sensor-vs-
  * gateway classification, and false alarms under the battery-adaptive
  * expected-interval model.
  */
object Table6Monitoring {

  import DataportProtocol._

  /** 3-day scenario: one gateway outage, one dead sensor. */
  val ScenarioSf: Double = 3.0 / Schemas.DaysPerSf
  val DeadDevice = "ctt-trd-05"
  val OutGateway = "gw-trd-3"
  /** The sensor reachable only through the out gateway (Ranheim). */
  val ExclusiveDevice = "ctt-trd-12"

  def outageStart: Long = Schemas.EpochStart + 86400L + 10 * 3600L // day 1, 10:00
  def outageEnd: Long = outageStart + 4 * 3600L
  def deathTime: Long = Schemas.EpochStart + 86400L + 18 * 3600L // day 1, 18:00

  final case class Result(
      packetsFed: Long,
      sensorFailureDetectMin: Option[Double],
      sensorFailureClass: Option[String],
      gatewayOutageDetectMin: Option[Double],
      exclusiveSensorClass: Option[String],
      recoveredAfterOutage: Boolean,
      falseSensorAlarms: Long,
      frameGapsObserved: Long,
      watchdogHealthyAtEnd: Boolean,
      messagesDispatched: Long,
      rendered: String)

  def compute(spark: SparkSession, seed: Long = 7L): Result = {
    val endEpoch = Schemas.EpochStart + 3 * 86400L
    val outages = Seq(OutageWindow(OutGateway, outageStart, outageEnd))

    // Simulate, kill the dead sensor at deathTime, transmit with the outage.
    val ups = repro.iot.SensorSimulator.uplinks(spark, ScenarioSf, seed)
      .filter(u => !(u.deviceId == DeadDevice && u.tsEpoch >= deathTime))
    val packets = RadioNetwork.transmit(spark, ups, RadioNetwork.gateways, outages,
      seed, seed)
      .collect().sortBy(p => (p.tsEpoch, p.deviceId, p.gatewayId))

    val dp = new Dataport(SensorFleet.nodes(seed), RadioNetwork.gateways)

    // Replay: packets interleaved with 5-minute ticks and backend heartbeats.
    var nextTick = Schemas.EpochStart + 300L
    packets.foreach { p =>
      while (nextTick <= p.tsEpoch) {
        dp.heartbeat(nextTick); dp.tick(nextTick); nextTick += 300L
      }
      dp.ingest(PacketMeta(p.deviceId, p.gatewayId, p.frameCounter, p.tsEpoch,
        p.rssi, p.batteryPct, p.intervalMin))
    }
    while (nextTick <= endEpoch) { dp.heartbeat(nextTick); dp.tick(nextTick); nextTick += 300L }

    val alarms = dp.alarms
    val classified = dp.classifiedAlarms

    val deadDown = alarms.collectFirst {
      case a: SensorDown if a.deviceId == DeadDevice && a.tsEpoch > deathTime => a
    }
    val deadClass = classified.find(c => c.deviceId == DeadDevice && c.tsEpoch > deathTime)
      .map(_.cause)
    val gwDown = alarms.collectFirst {
      case a: GatewayDown if a.gatewayId == OutGateway && a.tsEpoch > outageStart => a
    }
    val exclClass = classified
      .find(c => c.deviceId == ExclusiveDevice &&
        c.tsEpoch >= outageStart && c.tsEpoch <= outageEnd + 3600)
      .map(_.cause)
    val recoveredEvents = alarms.collect { case r: SensorRecovered => r }
    // The first post-outage uplink lands exactly at outageEnd (the window is
    // half-open), so recovery timestamps are >= outageEnd.
    val recovered = recoveredEvents.exists(r =>
      r.deviceId == ExclusiveDevice && r.tsEpoch >= outageEnd)
    // False alarms: sensor-down events not explained by the injected faults.
    val falseAlarms = alarms.count {
      case a: SensorDown =>
        val explainedDead = a.deviceId == DeadDevice && a.tsEpoch > deathTime
        val explainedOutage = a.deviceId == ExclusiveDevice &&
          a.tsEpoch >= outageStart && a.tsEpoch <= outageEnd + 3600
        !(explainedDead || explainedOutage)
      case _ => false
    }
    val frameGaps = dp.sensorStatuses.map(_.frameGaps).sum

    val rows = Seq(
      Seq("packets fed", packets.length.toString),
      Seq("sensor-failure detection latency (min)",
        deadDown.map(a => TableFmt.fmt((a.tsEpoch - deathTime) / 60.0)).getOrElse("MISSED")),
      Seq("sensor-failure classified as", deadClass.getOrElse("-")),
      Seq("gateway-outage detection latency (min)",
        gwDown.map(a => TableFmt.fmt((a.tsEpoch - outageStart) / 60.0)).getOrElse("MISSED")),
      Seq(s"silent-via-outage sensor ($ExclusiveDevice) classified as", exclClass.getOrElse("-")),
      Seq("recovered after outage", recovered.toString),
      Seq("recovery events", recoveredEvents.map(r =>
        s"${r.deviceId}@${(r.tsEpoch - Schemas.EpochStart) / 60}m").mkString(" ")),
      Seq("false sensor alarms", falseAlarms.toString),
      Seq("frame-counter gaps observed (single losses, no alarm)", frameGaps.toString),
      Seq("watchdog healthy at end", dp.watchdogHealthy(endEpoch).toString),
      Seq("actor messages dispatched", dp.system.delivered.toString))

    Result(
      packets.length.toLong,
      deadDown.map(a => (a.tsEpoch - deathTime) / 60.0),
      deadClass,
      gwDown.map(a => (a.tsEpoch - outageStart) / 60.0),
      exclClass,
      recovered,
      falseAlarms.toLong,
      frameGaps,
      dp.watchdogHealthy(endEpoch),
      dp.system.delivered,
      TableFmt.render("Dataport monitoring (§2.3) — fault injection, 3 days",
        Seq("Metric", "Value"), rows))
  }
}
