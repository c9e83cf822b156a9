package repro.twin

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schemas.EpochStart
import repro.iot.SensorFleet
import repro.lorawan.RadioNetwork

class DataportSpec extends AnyFunSuite {
  import DataportProtocol._

  private def freshPort() = new Dataport(SensorFleet.nodes(), RadioNetwork.gateways)

  private def pkt(dev: String, gw: String, fc: Long, ts: Long,
                  batt: Double = 90.0, interval: Int = 5) =
    PacketMeta(dev, gw, fc, ts, -80.0, batt, interval)

  test("twins track last seen, battery and packet counts") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-01", "gw-trd-1", 0, EpochStart + 300))
    dp.ingest(pkt("ctt-trd-01", "gw-trd-1", 1, EpochStart + 600, batt = 88.5))
    val s = dp.sensorStatuses.find(_.deviceId == "ctt-trd-01").get
    assert(s.lastSeenEpoch == EpochStart + 600)
    assert(s.batteryPct == 88.5)
    assert(s.packets == 2)
    dp.tick(EpochStart + 600 + 1900)
    assert(dp.alarms.collect { case a: GatewayDown => (a.gatewayId, a.lastSeenEpoch) } ==
      Seq(("gw-trd-1", EpochStart + 600)))
  }

  test("single frame gap is counted, not alarmed") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-02", "gw-trd-1", 0, EpochStart + 300))
    dp.ingest(pkt("ctt-trd-02", "gw-trd-1", 2, EpochStart + 900)) // fc 1 lost
    dp.tick(EpochStart + 1200)
    val s = dp.sensorStatuses.find(_.deviceId == "ctt-trd-02").get
    assert(s.frameGaps == 1)
    assert(dp.alarms.isEmpty)
  }

  test("sensor alarm after 3 missed cycles, not before") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-03", "gw-trd-1", 0, EpochStart + 300))
    dp.tick(EpochStart + 300 + 2 * 300) // 2 cycles
    assert(!dp.alarms.exists { case a: SensorDown => a.deviceId == "ctt-trd-03"; case _ => false })
    dp.tick(EpochStart + 300 + 3 * 300) // 3 cycles
    val down = dp.alarms.collect { case a: SensorDown if a.deviceId == "ctt-trd-03" => a }
    assert(down.size == 1)
    assert(down.head.missedCycles >= 3)
  }

  test("expected interval adapts to the battery-driven frequency") {
    val dp = freshPort()
    // Node at 10-minute cadence: 15 minutes of silence is NOT 3 cycles.
    dp.ingest(pkt("ctt-trd-04", "gw-trd-1", 0, EpochStart + 600, batt = 20.0, interval = 10))
    dp.tick(EpochStart + 600 + 1500)
    assert(dp.alarms.isEmpty, "2.5 cycles at 10-min cadence is no alarm")
    dp.tick(EpochStart + 600 + 3 * 600)
    assert(dp.alarms.collect { case a: SensorDown => a }.size == 1)
  }

  test("alarm fires once, and recovery clears it") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-05", "gw-trd-1", 0, EpochStart + 300))
    dp.tick(EpochStart + 2100); dp.tick(EpochStart + 2400); dp.tick(EpochStart + 2700)
    assert(dp.alarms.collect { case a: SensorDown => a }.size == 1, "no alarm spam")
    def status = dp.sensorStatuses.find(_.deviceId == "ctt-trd-05").get
    assert(status.alarmed)
    dp.ingest(pkt("ctt-trd-05", "gw-trd-1", 1, EpochStart + 3000))
    assert(dp.alarms.collect { case a: SensorRecovered => a }.size == 1)
    assert(!status.alarmed)
  }

  test("gateway alarm after silence beyond the timeout") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-01", "gw-trd-1", 0, EpochStart + 300))
    dp.tick(EpochStart + 300 + 1700)
    assert(!dp.alarms.exists { case _: GatewayDown => true; case _ => false })
    dp.tick(EpochStart + 300 + 1900)
    val down = dp.alarms.collect { case a: GatewayDown => a }
    assert(down.map(_.gatewayId) == Seq("gw-trd-1"))
    dp.tick(EpochStart + 300 + 2200)
    assert(dp.alarms.collect { case a: GatewayDown => a }.size == 1, "no alarm spam")
    dp.ingest(pkt("ctt-trd-01", "gw-trd-1", 1, EpochStart + 2600))
    assert(dp.alarms.collect { case a: GatewayRecovered => a.gatewayId } == Seq("gw-trd-1"))
  }

  test("classification: sensor silent while its only gateway is down ⇒ gateway-outage") {
    val dp = freshPort()
    // ctt-trd-12 (Ranheim) heard only via gw-trd-3.
    dp.ingest(pkt("ctt-trd-12", "gw-trd-3", 0, EpochStart + 300))
    // Gateway goes silent past its timeout; then the sensor trips 3 cycles.
    dp.tick(EpochStart + 300 + 1900) // gateway alarm first
    dp.tick(EpochStart + 300 + 2000)
    val classes = dp.classifiedAlarms.filter(_.deviceId == "ctt-trd-12")
    assert(classes.nonEmpty)
    assert(classes.head.cause == "gateway-outage", classes.toString)
  }

  test("classification: sensor silent while gateways are healthy ⇒ sensor-failure") {
    val dp = freshPort()
    dp.ingest(pkt("ctt-trd-06", "gw-trd-1", 0, EpochStart + 300))
    // Keep the gateway visibly alive through another sensor.
    (1 to 10).foreach(i => dp.ingest(pkt("ctt-trd-01", "gw-trd-1", i.toLong,
      EpochStart + 300 + i * 300)))
    dp.tick(EpochStart + 300 + 1200)
    val classes = dp.classifiedAlarms.filter(_.deviceId == "ctt-trd-06")
    assert(classes.map(_.cause) == Seq("sensor-failure"))
  }

  test("backend twin alarms when heartbeats stop") {
    val dp = freshPort()
    def backendAlarms = dp.alarms.collect { case a: BackendDown => a.lastSeenEpoch }
    dp.heartbeat(EpochStart + 300)
    dp.tick(EpochStart + 600)
    assert(backendAlarms.isEmpty)
    dp.tick(EpochStart + 300 + 1000)
    dp.tick(EpochStart + 300 + 1300)
    assert(backendAlarms == Seq(EpochStart + 300), "one alarm per silence")
    // A heartbeat clears the alarm, so the next silence alarms again.
    dp.heartbeat(EpochStart + 2000)
    dp.tick(EpochStart + 2000 + 600)
    assert(backendAlarms.size == 1)
    dp.tick(EpochStart + 2000 + 1000)
    assert(backendAlarms == Seq(EpochStart + 300, EpochStart + 2000))
  }

  test("watchdog: healthy only if a tick was processed recently") {
    val dp = freshPort()
    assert(!dp.watchdogHealthy(EpochStart + 600), "no tick processed yet")
    dp.tick(EpochStart + 600)
    assert(dp.watchdogHealthy(EpochStart + 900))
    assert(!dp.watchdogHealthy(EpochStart + 600 + 2000))
  }

  test("hierarchy: one city actor per city plus twins exist") {
    val dp = freshPort()
    // A tick reaches every actor once: 1 root + 2 cities + 14 sensors +
    // 4 gateways + 1 backend = 22 deliveries, none of them dead letters.
    val before = dp.system.delivered
    dp.tick(EpochStart + 300)
    assert(dp.system.delivered - before == 22)
    assert(dp.system.deadLetters == 0)
  }

  test("packets for unknown devices are ignored gracefully") {
    val dp = freshPort()
    dp.ingest(pkt("ghost-device", "gw-trd-1", 0, EpochStart + 300))
    assert(dp.sensorStatuses.forall(_.packets == 0))
  }
}
