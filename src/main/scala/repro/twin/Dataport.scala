package repro.twin

import scala.collection.mutable
import repro.core.Schemas.SensorNode
import repro.lorawan.Gateway

/** Message and status types of the dataport (§2.3). */
object DataportProtocol {

  /** Metadata of one received packet ("incoming data contains meta-data that
    * identifies the originating sensor and the gateway").
    */
  final case class PacketMeta(deviceId: String, gatewayId: String, frameCounter: Long,
                              tsEpoch: Long, rssi: Double, batteryPct: Double,
                              intervalMin: Int)

  /** Periodic clock message driving timeout detection. */
  final case class Tick(nowEpoch: Long)

  /** Heartbeat of the cloud backend (TTN/MQTT path). */
  final case class BackendHeartbeat(tsEpoch: Long)

  sealed trait Alarm { def tsEpoch: Long }
  final case class SensorDown(deviceId: String, lastSeenEpoch: Long, missedCycles: Long,
                              recentGateways: Set[String], tsEpoch: Long) extends Alarm
  final case class SensorRecovered(deviceId: String, tsEpoch: Long) extends Alarm
  final case class GatewayDown(gatewayId: String, lastSeenEpoch: Long, tsEpoch: Long) extends Alarm
  final case class GatewayRecovered(gatewayId: String, tsEpoch: Long) extends Alarm
  final case class BackendDown(lastSeenEpoch: Long, tsEpoch: Long) extends Alarm

  /** A sensor alarm classified at the city level: `cause` is
    * "gateway-outage" when the silent sensors were only reachable through a
    * gateway that is itself down, else "sensor-failure".
    */
  final case class ClassifiedAlarm(deviceId: String, cause: String,
                                   gatewayId: Option[String], tsEpoch: Long)

  /** Live status of one digital twin, for the Fig 3/8 visualization. */
  final case class SensorStatus(deviceId: String, city: String, lat: Double, lon: Double,
                                lastSeenEpoch: Long, batteryPct: Double,
                                expectedIntervalMin: Int, alarmed: Boolean,
                                packets: Long, frameGaps: Long)
}

/** The network-metadata monitoring application of §2.3: "each device in the
  * real world corresponds to a dedicated actor that acts as its digital
  * twin". Sensor twins model the battery-adaptive transmit interval, so a
  * missed-cycle count needs "some cycles to determine a failure with
  * certainty"; gateway twins watch per-gateway traffic; the city level
  * groups failures to separate "sensor failures versus a gateway outage that
  * would make a set of sensors invisible"; a backend twin monitors the
  * TTN/MQTT path; an external watchdog monitors the dataport itself.
  */
final class Dataport(fleet: Seq[SensorNode], gateways: Seq[Gateway]) {

  import DataportProtocol._

  private val MissedCyclesForAlarm = 3
  private val GatewayTimeoutSec = 1800L
  private val BackendTimeoutSec = 900L
  private val WatchdogToleranceSec = 900L

  val system = new ActorSystem("dataport")

  private val alarmLog = mutable.ArrayBuffer.empty[Alarm]
  private val classifiedLog = mutable.ArrayBuffer.empty[ClassifiedAlarm]
  /** Gateways each currently-alarmed sensor was last heard through. */
  private val pendingSensorGateways = mutable.Map.empty[String, Set[String]]
  private var lastTickProcessedEpoch: Long = -1L

  // ---- twin state (owned by the actors, snapshotted read-only) ----
  private final class SensorState(val node: SensorNode) {
    /** 0 until the first packet — a twin only watches a node it has heard. */
    var lastSeen: Long = 0L
    var lastFc: Long = -1L
    var battery: Double = Double.NaN
    var expectedIntervalMin: Int = 5
    var alarmed = false
    var packets = 0L
    var frameGaps = 0L
    val recentGateways = mutable.Queue.empty[String]
  }
  private final class GatewayState(val gw: Gateway) {
    var lastSeen: Long = 0L
    var alarmed = false
  }

  private val sensorStates = fleet.map(n => n.deviceId -> new SensorState(n)).toMap
  private val gatewayStates = gateways.map(g => g.gatewayId -> new GatewayState(g)).toMap
  private var backendLastSeen = 0L
  private var backendAlarmed = false

  // ---- actors ----
  private class SensorTwin(deviceId: String) extends Actor {
    private def st = sensorStates(deviceId)
    override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
      case p: PacketMeta =>
        val s = st
        // "a single missing measurement is expected occasionally" — frame
        // counter gaps are counted, not alarmed.
        if (s.lastFc >= 0 && p.frameCounter > s.lastFc + 1) s.frameGaps += p.frameCounter - s.lastFc - 1
        s.lastFc = math.max(s.lastFc, p.frameCounter)
        s.lastSeen = math.max(s.lastSeen, p.tsEpoch)
        s.battery = p.batteryPct
        s.expectedIntervalMin = p.intervalMin
        s.packets += 1
        s.recentGateways.enqueue(p.gatewayId)
        while (s.recentGateways.size > 12) s.recentGateways.dequeue()
        if (s.alarmed) {
          s.alarmed = false
          ctx.parent.foreach(ctx.send(_, SensorRecovered(deviceId, p.tsEpoch)))
        }
      case Tick(now) =>
        val s = st
        // The twin's "complex model of the sensor node": the expected
        // interval follows the node's battery-adaptive frequency.
        val expSec = s.expectedIntervalMin * 60L
        val missed = if (s.lastSeen <= 0) 0L else (now - s.lastSeen) / expSec
        if (!s.alarmed && missed >= MissedCyclesForAlarm) {
          s.alarmed = true
          ctx.parent.foreach(ctx.send(_,
            SensorDown(deviceId, s.lastSeen, missed, s.recentGateways.toSet, now)))
        }
      case _ =>
    }
  }

  private class GatewayTwin(gatewayId: String) extends Actor {
    private def st = gatewayStates(gatewayId)
    override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
      case p: PacketMeta =>
        val s = st
        s.lastSeen = math.max(s.lastSeen, p.tsEpoch)
        if (s.alarmed) {
          s.alarmed = false
          ctx.parent.foreach(ctx.send(_, GatewayRecovered(gatewayId, p.tsEpoch)))
        }
      case Tick(now) =>
        val s = st
        if (!s.alarmed && s.lastSeen > 0 && now - s.lastSeen > GatewayTimeoutSec) {
          s.alarmed = true
          ctx.parent.foreach(ctx.send(_, GatewayDown(gatewayId, s.lastSeen, now)))
        }
      case _ =>
    }
  }

  /** City level: routes packets to twins and groups failures — the
    * "higher levels [where] failures can be grouped" of §2.3.
    */
  private class CityActor(city: String) extends Actor {
    private var twins = Map.empty[String, ActorRef] // deviceId/gatewayId -> twin
    override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
      case "init" =>
        val sTwins = fleet.filter(_.city == city).map(n =>
          n.deviceId -> ctx.spawn(n.deviceId, () => new SensorTwin(n.deviceId)))
        val gTwins = gateways.filter(_.city == city).map(g =>
          g.gatewayId -> ctx.spawn(g.gatewayId, () => new GatewayTwin(g.gatewayId)))
        twins = (sTwins ++ gTwins).toMap
      case p: PacketMeta =>
        twins.get(p.deviceId).foreach(ctx.send(_, p))
        twins.get(p.gatewayId).foreach(ctx.send(_, p))
      case t: Tick =>
        twins.valuesIterator.foreach(ctx.send(_, t))
      case a: SensorDown =>
        alarmLog += a
        // Gateway-outage separation: the sensor only reached gateways that
        // are themselves down ⇒ the sensor is probably fine.
        val viaDown = a.recentGateways.nonEmpty &&
          a.recentGateways.forall(g => gatewayStates.get(g).exists(_.alarmed))
        classifiedLog += ClassifiedAlarm(a.deviceId,
          if (viaDown) "gateway-outage" else "sensor-failure",
          a.recentGateways.headOption.filter(_ => viaDown), a.tsEpoch)
        pendingSensorGateways(a.deviceId) = a.recentGateways
      case a: GatewayDown =>
        alarmLog += a
        // A sensor trips 3 missed cycles (~15 min at 5-min cadence) before a
        // gateway trips its 30-min silence timeout, so sensor alarms caused
        // by an outage arrive first as "sensor-failure". Reclassify them
        // once their only uplink path is known to be down (§2.3 grouping).
        classifiedLog.indices.foreach { i =>
          val c = classifiedLog(i)
          if (c.cause == "sensor-failure" &&
              sensorStates.get(c.deviceId).exists(_.alarmed)) {
            val via = pendingSensorGateways.getOrElse(c.deviceId, Set.empty)
            if (via.nonEmpty && via.forall(g => gatewayStates.get(g).exists(_.alarmed)))
              classifiedLog(i) = c.copy(cause = "gateway-outage", gatewayId = via.headOption)
          }
        }
      case a: Alarm => alarmLog += a
      case ChildFailed(_, _) => // child restarted by supervision; keep going
      case _ =>
    }
  }

  private class BackendTwin extends Actor {
    override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
      case BackendHeartbeat(t) =>
        backendLastSeen = math.max(backendLastSeen, t)
        backendAlarmed = false
      case Tick(now) =>
        if (!backendAlarmed && backendLastSeen > 0 && now - backendLastSeen > BackendTimeoutSec) {
          backendAlarmed = true
          ctx.parent.foreach(ctx.send(_, BackendDown(backendLastSeen, now)))
        }
      case _ =>
    }
  }

  private class RootActor extends Actor {
    private var cityRefs = Map.empty[String, ActorRef]
    private var backend: ActorRef = _
    override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
      case "init" =>
        val cities = (fleet.map(_.city) ++ gateways.map(_.city)).distinct
        cityRefs = cities.map { c =>
          val ref = ctx.spawn(c, () => new CityActor(c))
          ctx.send(ref, "init")
          c -> ref
        }.toMap
        backend = ctx.spawn("backend", () => new BackendTwin)
      case p: PacketMeta =>
        val city = sensorStates.get(p.deviceId).map(_.node.city)
          .orElse(gatewayStates.get(p.gatewayId).map(_.gw.city))
        city.flatMap(cityRefs.get).foreach(ctx.send(_, p))
      case t: Tick =>
        lastTickProcessedEpoch = t.nowEpoch
        cityRefs.valuesIterator.foreach(ctx.send(_, t))
        ctx.send(backend, t)
      case h: BackendHeartbeat => ctx.send(backend, h)
      case a: Alarm => alarmLog += a
      case ChildFailed(_, _) =>
      case _ =>
    }
  }

  private val root: ActorRef = system.actorOf("root", () => new RootActor)
  system.send(root, "init")
  system.dispatchAll()

  // ---- public API ----
  def ingest(p: PacketMeta): Unit = { system.send(root, p); system.dispatchAll() }
  def heartbeat(tsEpoch: Long): Unit = { system.send(root, BackendHeartbeat(tsEpoch)); system.dispatchAll() }
  def tick(nowEpoch: Long): Unit = { system.send(root, Tick(nowEpoch)); system.dispatchAll() }

  def alarms: Seq[Alarm] = alarmLog.toSeq
  def classifiedAlarms: Seq[ClassifiedAlarm] = classifiedLog.toSeq

  def sensorStatuses: Seq[SensorStatus] = fleet.map { n =>
    val s = sensorStates(n.deviceId)
    SensorStatus(n.deviceId, n.city, n.lat, n.lon, s.lastSeen, s.battery,
      s.expectedIntervalMin, s.alarmed, s.packets, s.frameGaps)
  }

  /** External watchdog (AppBeat substitute): the dataport itself is healthy
    * iff it processed a Tick recently.
    */
  def watchdogHealthy(nowEpoch: Long): Boolean =
    lastTickProcessedEpoch > 0 && nowEpoch - lastTickProcessedEpoch <= WatchdogToleranceSec
}
