package repro.iot

import repro.SparkSpec

class SensorFleetSpec extends SparkSpec {

  test("fleet matches the paper: 12 Trondheim + 2 Vejle sensors") {
    val nodes = SensorFleet.nodes()
    assert(nodes.count(_.city == "Trondheim") == 12)
    assert(nodes.count(_.city == "Vejle") == 2)
    assert(nodes.size == 14)
  }

  test("device ids are unique") {
    val ids = SensorFleet.nodes().map(_.deviceId)
    assert(ids.distinct.size == ids.size)
  }

  test("exactly one node is co-located with the official station") {
    val coloc = SensorFleet.nodes().filter(_.colocatedStation.isDefined)
    assert(coloc.map(_.deviceId) == Seq("ctt-trd-01"))
    assert(coloc.head.colocatedStation.contains(SensorFleet.ColocatedStationId))
  }

  test("exactly one decaying node is configured") {
    val decaying = SensorFleet.nodes().filter(_.driftPerDay > 0)
    assert(decaying.map(_.deviceId) == Seq(SensorFleet.DecayingDeviceId))
    assert(decaying.head.noiseScale > 2.0)
  }

  test("node positions are inside their city (within 15 km)") {
    SensorFleet.nodes().foreach { n =>
      val c = Cities.of(n.city)
      val d = repro.core.GeoFunctions.haversineKm(n.lat, n.lon, c.lat, c.lon)
      assert(d < 15.0, s"${n.deviceId} is $d km from ${n.city}")
    }
  }

  test("low-cost error parameters are modest and deterministic") {
    val a = SensorFleet.nodes(7L); val b = SensorFleet.nodes(7L)
    assert(a == b)
    a.foreach { n =>
      assert(n.gain > 0.6 && n.gain < 1.4, s"${n.deviceId} gain=${n.gain}")
      assert(math.abs(n.bias) < 15.0)
    }
  }

  test("different seeds give different error params but same layout") {
    val a = SensorFleet.nodes(7L); val b = SensorFleet.nodes(8L)
    assert(a.map(_.deviceId) == b.map(_.deviceId))
    assert(a.map(_.lat) == b.map(_.lat))
    assert(a.map(_.gain) != b.map(_.gain))
  }

  test("toDF exposes all nodes with metadata columns") {
    val df = SensorFleet.toDF(spark)
    assert(df.count() == 14)
    assert(Seq("deviceId", "city", "lat", "lon", "gain", "bias").forall(
      df.columns.contains))
  }

  test("every node is installed at the epoch start (since January 2017)") {
    assert(SensorFleet.nodes().forall(_.installedAt == repro.core.Schemas.EpochStart))
  }
}
