package repro.lorawan

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DetHash, GeoFunctions}
import repro.core.Schemas.{ReceivedPacket, Uplink}
import repro.iot.{Cities, SensorFleet}

/** A LoRaWAN gateway covering part of a pilot region (§2.1: "a number of
  * gateways covering the pilot regions").
  */
final case class Gateway(gatewayId: String, city: String, lat: Double, lon: Double,
                         rangeKm: Double)

/** A scheduled gateway outage window, used to exercise the dataport's
  * sensor-failure vs gateway-outage separation (§2.3).
  */
final case class OutageWindow(gatewayId: String, startEpoch: Long, endEpoch: Long)

/** Radio propagation of the urban LoRaWAN backbone.
  *
  * Every gateway within radio range receives each uplink independently with a
  * distance-dependent delivery probability (log-distance path loss), so the
  * same frame is often received by several gateways — the duplicates the ETL
  * must collapse — and is sometimes received by none — the missing data the
  * monitoring layer must detect. RSSI/SNR metadata mirror what TTN forwards.
  */
object RadioNetwork {

  /** Default gateway layout: three in Trondheim, one in Vejle. */
  def gateways: Seq[Gateway] = Seq(
    Gateway("gw-trd-1", Cities.Trondheim.name, 63.4310, 10.4020, 5.5),
    Gateway("gw-trd-2", Cities.Trondheim.name, 63.3850, 10.3650, 6.0),
    Gateway("gw-trd-3", Cities.Trondheim.name, 63.4270, 10.4900, 5.0),
    Gateway("gw-vjl-1", Cities.Vejle.name, 55.7070, 9.5400, 6.0),
  )

  /** Delivery probability over distance: near-certain close to the gateway,
    * fading toward the cell edge, zero beyond the range. The curve is flat
    * enough that a covered sensor rarely loses 3+ consecutive frames (which
    * would look like a node failure to the dataport), while single losses —
    * "a single missing measurement is expected occasionally" — stay common.
    */
  def deliveryProbability(distKm: Double, rangeKm: Double): Double =
    if (distKm >= rangeKm) 0.0
    else math.min(0.97, math.max(0.0, 1.15 - 0.45 * math.pow(distKm / rangeKm, 2)))

  /** Log-distance RSSI in dBm with shadowing noise. */
  def rssiDbm(distKm: Double, noise: Double): Double =
    -50.0 - 10.0 * 2.7 * math.log10(math.max(0.05, distKm) * 1000.0 / 10.0) + 2.0 * noise

  def snrDb(distKm: Double, rangeKm: Double, noise: Double): Double =
    10.0 - 12.0 * (distKm / rangeKm) + 1.5 * noise

  /** Receptions of one uplink across all gateways (pure). */
  def receive(up: Uplink, gws: Seq[Gateway], outages: Seq[OutageWindow],
              nodeLat: Double, nodeLon: Double, seed: Long): Seq[ReceivedPacket] =
    gws.flatMap { gw =>
      val out = outages.exists(o =>
        o.gatewayId == gw.gatewayId && up.tsEpoch >= o.startEpoch && up.tsEpoch < o.endEpoch)
      if (out) None
      else {
        val d = GeoFunctions.haversineKm(nodeLat, nodeLon, gw.lat, gw.lon)
        val p = deliveryProbability(d, gw.rangeKm)
        val gwKey = DetHash.strHash(gw.gatewayId)
        val devKey = DetHash.strHash(up.deviceId)
        val draw = DetHash.uniform(seed, devKey, gwKey, up.frameCounter, 91L)
        if (draw < p) {
          val n1 = DetHash.gaussian(seed, devKey, gwKey, up.frameCounter, 92L)
          val n2 = DetHash.gaussian(seed, devKey, gwKey, up.frameCounter, 93L)
          Some(ReceivedPacket(up.deviceId, gw.gatewayId, up.frameCounter, up.tsEpoch,
            rssiDbm(d, n1), snrDb(d, gw.rangeKm, n2), up.payloadB64,
            up.batteryPct, up.intervalMin))
        } else None
      }
    }

  /** Map a fleet's uplinks through the radio network. Requires node
    * positions; joins them in from [[SensorFleet]] configuration.
    */
  def transmit(spark: SparkSession, ups: Dataset[Uplink],
               gws: Seq[Gateway] = gateways,
               outages: Seq[OutageWindow] = Seq.empty,
               seed: Long = 7L, fleetSeed: Long = 7L): Dataset[ReceivedPacket] = {
    import spark.implicits._
    val pos: Map[String, (Double, Double)] =
      SensorFleet.nodes(fleetSeed).map(n => n.deviceId -> (n.lat, n.lon)).toMap
    ups.flatMap { up =>
      val (la, lo) = pos.getOrElse(up.deviceId,
        throw new IllegalArgumentException(s"unknown device ${up.deviceId}"))
      receive(up, gws, outages, la, lo, seed)
    }
  }
}
