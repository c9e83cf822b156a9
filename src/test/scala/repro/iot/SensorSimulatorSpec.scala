package repro.iot

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Schemas
import repro.lorawan.PacketCodec

class SensorSimulatorSpec extends SparkSpec {

  private val sf = 0.005 // 2 days
  private lazy val ups = SensorSimulator.uplinks(spark, sf, 7L).cache()

  test("all 14 nodes transmit") {
    assert(ups.toDF().select("deviceId").distinct().count() == 14)
  }

  test("frame counters are dense and monotone per node") {
    import spark.implicits._
    val perNode = ups.groupByKey(_.deviceId).mapGroups { (_, it) =>
      val fcs = it.map(_.frameCounter).toSeq.sorted
      fcs == (0L until fcs.size.toLong)
    }.collect()
    assert(perNode.forall(identity))
  }

  test("timestamps stay inside the horizon and step by the interval") {
    import spark.implicits._
    val end = SensorSimulator.endEpoch(sf)
    val ok = ups.groupByKey(_.deviceId).mapGroups { (_, it) =>
      val us = it.toSeq.sortBy(_.frameCounter)
      us.forall(u => u.tsEpoch >= Schemas.EpochStart && u.tsEpoch < end) &&
        us.sliding(2).forall {
          case Seq(a, b) => b.tsEpoch - a.tsEpoch == a.intervalMin * 60L
          case _ => true
        }
    }.collect()
    assert(ok.forall(identity))
  }

  test("healthy battery means 5-minute cadence (the paper's interval)") {
    import spark.implicits._
    val highBatt = ups.filter(_.batteryPct >= 30.0)
    assert(highBatt.map(_.intervalMin).distinct().collect().toSeq == Seq(5))
  }

  test("payloads decode back to plausible measurements") {
    val decoded = ups.limit(500).collect().map(u => PacketCodec.decode(u.payloadB64))
    assert(decoded.forall(_.isDefined))
    decoded.flatten.foreach { m =>
      assert(m.co2Ppm > 300 && m.co2Ppm < 1000)
      assert(m.no2Ugm3 >= 0 && m.no2Ugm3 < 600)
      assert(m.humidityPct >= 0 && m.humidityPct <= 100)
    }
  }

  test("encoded battery matches the uplink's battery field (0.5% gauge)") {
    val rows = ups.limit(200).collect()
    rows.foreach { u =>
      val m = PacketCodec.decode(u.payloadB64).get
      assert(math.abs(m.batteryPct - u.batteryPct) <= 0.25)
    }
  }

  test("generation is deterministic in (sf, seed)") {
    val a = SensorSimulator.uplinks(spark, sf, 7L).collect().sortBy(u => (u.deviceId, u.frameCounter))
    val b = SensorSimulator.uplinks(spark, sf, 7L).collect().sortBy(u => (u.deviceId, u.frameCounter))
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds change the data") {
    val a = SensorSimulator.uplinks(spark, sf, 7L).limit(50).collect().map(_.payloadB64).toSet
    val b = SensorSimulator.uplinks(spark, sf, 8L).limit(50).collect().map(_.payloadB64).toSet
    assert(a != b)
  }

  test("the decaying node is visibly noisier packet-to-packet than the fleet") {
    import spark.implicits._
    // 2 days of drift at 0.9/day is small, but the decaying node's 3.5×
    // noise dominates lag-1 differences (the diurnal signal barely moves
    // between 5-minute packets, so diffs isolate sensor noise).
    val diffs = ups.groupByKey(_.deviceId).flatMapGroups { (dev, it) =>
      val vals = it.toSeq.sortBy(_.frameCounter)
        .map(u => PacketCodec.decode(u.payloadB64).get.no2Ugm3)
      vals.sliding(2).collect { case Seq(a, b) => (dev, b - a) }
    }.toDF("deviceId", "d")
    val sds = diffs.groupBy($"deviceId").agg(stddev_samp($"d").as("sd"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    val decaySd = sds(SensorFleet.DecayingDeviceId)
    val otherMax = (sds - SensorFleet.DecayingDeviceId).values.max
    // Lag-1 diffs still carry shared per-slot field noise (jam/truth terms),
    // so the decaying node leads the fleet but not by the full 3.5× factor.
    assert(decaySd > otherMax * 1.2, s"decay=$decaySd otherMax=$otherMax")
  }

  test("uplink volume matches the 5-min cadence horizon") {
    val n = ups.count()
    val expected = 14L * 2 * 288 // nodes * days * slots
    assert(n >= expected * 0.8 && n <= expected * 1.05, s"n=$n expected≈$expected")
  }

  test("endEpoch honours the minimum 2-day horizon") {
    assert(SensorSimulator.endEpoch(1e-9) == Schemas.EpochStart + 2 * 86400L)
  }
}
