package repro.lorawan

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schemas.{EpochStart, Uplink}
import repro.iot.SensorFleet

class RadioNetworkSpec extends AnyFunSuite {

  private val gws = RadioNetwork.gateways
  private val nodes = SensorFleet.nodes()

  test("gateway layout: 3 Trondheim + 1 Vejle") {
    assert(gws.count(_.city == "Trondheim") == 3)
    assert(gws.count(_.city == "Vejle") == 1)
  }

  test("delivery probability: 0 beyond range, capped at 0.97, monotone") {
    assert(RadioNetwork.deliveryProbability(10.0, 5.0) == 0.0)
    assert(RadioNetwork.deliveryProbability(5.0, 5.0) == 0.0)
    assert(RadioNetwork.deliveryProbability(0.1, 5.0) == 0.97)
    val ps = (0 until 50).map(i => RadioNetwork.deliveryProbability(i * 0.1, 5.0))
    assert(ps.zip(ps.tail).forall { case (a, b) => a >= b })
  }

  test("every deployed node is covered by at least one gateway") {
    nodes.foreach { n =>
      val best = gws.map(gw => RadioNetwork.deliveryProbability(
        repro.core.GeoFunctions.haversineKm(n.lat, n.lon, gw.lat, gw.lon), gw.rangeKm)).max
      assert(best > 0.5, s"${n.deviceId} best delivery=$best")
    }
  }

  test("Ranheim is reachable only through gw-trd-3 (scenario invariant)") {
    val ranheim = nodes.find(_.deviceId == "ctt-trd-12").get
    val probs = gws.filter(_.city == "Trondheim").map { gw =>
      gw.gatewayId -> RadioNetwork.deliveryProbability(
        repro.core.GeoFunctions.haversineKm(ranheim.lat, ranheim.lon, gw.lat, gw.lon),
        gw.rangeKm)
    }.toMap
    assert(probs("gw-trd-3") > 0.8, s"probs=$probs")
    assert(probs("gw-trd-1") == 0.0 && probs("gw-trd-2") == 0.0, s"probs=$probs")
  }

  test("rssi decays with distance") {
    assert(RadioNetwork.rssiDbm(0.1, 0.0) > RadioNetwork.rssiDbm(3.0, 0.0))
    assert(RadioNetwork.rssiDbm(3.0, 0.0) > -130 && RadioNetwork.rssiDbm(3.0, 0.0) < -60)
  }

  test("receive: duplicates across gateways in dense coverage") {
    val torvet = nodes.head // central Trondheim
    val up = Uplink(torvet.deviceId, 1L, EpochStart + 3600, "payload", 90.0, 5)
    val counts = (0 until 200).map { fc =>
      RadioNetwork.receive(up.copy(frameCounter = fc.toLong), gws, Seq.empty,
        torvet.lat, torvet.lon, 7L).size
    }
    assert(counts.max >= 2, "central node should sometimes be heard by 2 gateways")
    assert(counts.sum.toDouble / counts.size > 0.9, "near-certain overall reception")
  }

  test("receive: outage silences the gateway but not others") {
    val torvet = nodes.head
    val outage = Seq(OutageWindow("gw-trd-1", EpochStart, EpochStart + 7200))
    (0 until 100).foreach { fc =>
      val up = Uplink(torvet.deviceId, fc.toLong, EpochStart + 3600, "p", 90.0, 5)
      val rec = RadioNetwork.receive(up, gws, outage, torvet.lat, torvet.lon, 7L)
      assert(!rec.exists(_.gatewayId == "gw-trd-1"))
    }
  }

  test("receive: outage window is time-bounded") {
    val torvet = nodes.head
    val outage = Seq(OutageWindow("gw-trd-1", EpochStart, EpochStart + 7200))
    val after = (0 until 200).flatMap { fc =>
      val up = Uplink(torvet.deviceId, fc.toLong, EpochStart + 7200, "p", 90.0, 5)
      RadioNetwork.receive(up, gws, outage, torvet.lat, torvet.lon, 7L)
    }
    assert(after.exists(_.gatewayId == "gw-trd-1"))
  }

  test("receive is deterministic in the seed") {
    val n = nodes(3)
    val up = Uplink(n.deviceId, 9L, EpochStart + 1234, "p", 88.0, 5)
    val a = RadioNetwork.receive(up, gws, Seq.empty, n.lat, n.lon, 7L)
    val b = RadioNetwork.receive(up, gws, Seq.empty, n.lat, n.lon, 7L)
    assert(a == b)
    val c = RadioNetwork.receive(up, gws, Seq.empty, n.lat, n.lon, 8L)
    assert(a != c || a.isEmpty) // different seed, different draws (almost surely)
  }

  test("received packets carry the uplink's metadata") {
    val n = nodes.head
    val up = Uplink(n.deviceId, 5L, EpochStart + 60, "XYZ", 77.5, 10)
    val rec = RadioNetwork.receive(up, gws, Seq.empty, n.lat, n.lon, 7L)
    rec.foreach { p =>
      assert(p.deviceId == n.deviceId && p.frameCounter == 5L &&
        p.tsEpoch == up.tsEpoch && p.payloadB64 == "XYZ" &&
        p.batteryPct == 77.5 && p.intervalMin == 10)
    }
  }

  test("snr is higher near the gateway") {
    assert(RadioNetwork.snrDb(0.2, 5.0, 0.0) > RadioNetwork.snrDb(4.5, 5.0, 0.0))
  }
}
