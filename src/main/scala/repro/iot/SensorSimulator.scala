package repro.iot

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DetHash, Schemas}
import repro.core.Schemas.{Measurement, SensorNode, Uplink}
import repro.lorawan.PacketCodec

/** Simulates the deployed sensor nodes: samples the ground-truth fields with
  * low-cost-sensor error (gain, bias, drift, noise), advances the solar
  * battery, adapts the transmit interval to the battery level, and emits
  * LoRaWAN uplinks with encoded payloads and monotone frame counters.
  *
  * Generation is parallelized per node via `Dataset.flatMap`, deterministic
  * in (sf, seed).
  */
object SensorSimulator {

  /** All uplinks of one node over [node.installedAt, endEpoch). Pure. */
  def simulateNode(node: SensorNode, endEpoch: Long, seed: Long): Iterator[Uplink] = {
    val city = Cities.of(node.city)
    val devKey = DetHash.strHash(node.deviceId)
    var t = node.installedAt
    var battery = 70.0 + 30.0 * DetHash.uniform(seed, devKey, 71L)
    var fc = 0L

    new Iterator[Uplink] {
      override def hasNext: Boolean = t < endEpoch
      override def next(): Uplink = {
        val truth = EmissionModel.truthAt(city, node.lat, node.lon, t, seed)
        val ageDays = (t - node.installedAt) / 86400.0
        def noisy(v: Double, sigma: Double, tag: Long): Double = math.max(0.0,
          v * node.gain + node.bias + node.driftPerDay * ageDays +
            sigma * node.noiseScale * DetHash.gaussian(seed, devKey, t, tag))
        val m = Measurement(
          co2Ppm = noisy(truth.co2Ppm, 3.0, 81L),
          no2Ugm3 = noisy(truth.no2Ugm3, 1.5, 82L),
          pm10Ugm3 = noisy(truth.pm10Ugm3, 1.5, 83L),
          pm25Ugm3 = noisy(truth.pm25Ugm3, 1.0, 84L),
          tempC = truth.tempC + 0.3 * DetHash.gaussian(seed, devKey, t, 85L),
          humidityPct = math.min(100.0, math.max(0.0,
            truth.humidityPct + 1.5 * DetHash.gaussian(seed, devKey, t, 86L))),
          pressureHpa = truth.pressureHpa + 0.4 * DetHash.gaussian(seed, devKey, t, 87L),
          batteryPct = battery)

        val interval = Battery.intervalMinFor(battery)
        val up = Uplink(node.deviceId, fc, t, PacketCodec.encode(m), battery, interval)
        battery = Battery.step(battery, city, node.lat, t, interval, seed, devKey)
        t += interval * 60L
        fc += 1
        up
      }
    }
  }

  /** End of the simulated horizon for a scale factor. */
  def endEpoch(sf: Double): Long = Schemas.EpochStart + Schemas.days(sf) * 86400L

  /** All uplinks of the fleet at a scale factor, as a typed Dataset. */
  def uplinks(spark: SparkSession, sf: Double, seed: Long = 7L): Dataset[Uplink] = {
    import spark.implicits._
    val fleet = SensorFleet.nodes(seed)
    val end = endEpoch(sf)
    spark.createDataset(fleet)
      .repartition(fleet.size)
      .flatMap(node => simulateNode(node, end, seed))
  }
}
