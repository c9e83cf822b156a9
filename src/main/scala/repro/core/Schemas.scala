package repro.core

import org.apache.spark.sql.types._

/** Record types flowing through the CTT reproduction pipeline.
  *
  * Epoch seconds (`Long`) are the canonical on-the-wire time representation;
  * DataFrame stages derive dates from them where they partition or report
  * by day.
  */
object Schemas {

  /** Static configuration of one deployed sensor node (a "digital twin" seed). */
  final case class SensorNode(
      deviceId: String,
      city: String,
      siteName: String,
      lat: Double,
      lon: Double,
      /** Epoch second of installation (start of its data). */
      installedAt: Long,
      /** Multiplicative error of the low-cost sensor per pollutant family. */
      gain: Double,
      /** Additive error (ppm for CO2 / ug/m3 for NO2, PMx). */
      bias: Double,
      /** Additive drift per day since installation (decaying sensors). */
      driftPerDay: Double,
      /** Gaussian measurement noise scale multiplier. */
      noiseScale: Double,
      /** Id of a co-located official station, if any (grounding/calibration). */
      colocatedStation: Option[String])

  /** One LoRaWAN uplink as produced by a node (before the radio network). */
  final case class Uplink(
      deviceId: String,
      frameCounter: Long,
      tsEpoch: Long,
      payloadB64: String,
      batteryPct: Double,
      intervalMin: Int)

  /** One uplink as received by one gateway (after path loss; may be duplicated
    * across gateways, may be missing entirely).
    */
  final case class ReceivedPacket(
      deviceId: String,
      gatewayId: String,
      frameCounter: Long,
      tsEpoch: Long,
      rssi: Double,
      snr: Double,
      payloadB64: String,
      batteryPct: Double,
      intervalMin: Int)

  /** Decoded physical measurement carried by one packet. */
  final case class Measurement(
      co2Ppm: Double,
      no2Ugm3: Double,
      pm10Ugm3: Double,
      pm25Ugm3: Double,
      tempC: Double,
      humidityPct: Double,
      pressureHpa: Double,
      batteryPct: Double)

  /** JSON schema of packets on the MQTT→file bridge (ingestion source). */
  val packetSchema: StructType = StructType(Seq(
    StructField("deviceId", StringType, nullable = false),
    StructField("gatewayId", StringType, nullable = false),
    StructField("frameCounter", LongType, nullable = false),
    StructField("tsEpoch", LongType, nullable = false),
    StructField("rssi", DoubleType, nullable = false),
    StructField("snr", DoubleType, nullable = false),
    StructField("payloadB64", StringType, nullable = false),
    StructField("batteryPct", DoubleType, nullable = false),
    StructField("intervalMin", IntegerType, nullable = false),
  ))

  /** Quality flags attached by the validation stage of the ETL. */
  object Quality {
    val Ok = "OK"
    val RangeViolation = "RANGE"
    val DecodeError = "DECODE_ERROR"
  }

  /** 2017-01-01T00:00:00Z — start of the paper's historic data collection. */
  val EpochStart: Long = 1483228800L

  /** SF=1.0 is the paper's demo horizon: Jan 2017 → late Feb 2018. */
  val DaysPerSf: Double = 420.0

  /** Number of simulated days at a scale factor (>= 2 so diurnal analyses
    * always have more than one cycle).
    */
  def days(sf: Double): Int = math.max(2, math.round(DaysPerSf * sf).toInt)
}
