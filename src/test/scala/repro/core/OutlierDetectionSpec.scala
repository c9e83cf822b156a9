package repro.core

import repro.{SparkSpec, TestData}
import repro.iot.SensorFleet

class OutlierDetectionSpec extends SparkSpec {

  test("residualDrift: a drifting sensor shows a positive slope") {
    import spark.implicits._
    val rows = for {
      d <- 1 to 4; h <- 0 until 96
    } yield {
      // 24h-periodic base: whole periods over the window, so the diurnal
      // cycle is orthogonal to the injected linear drift.
      val base = 20.0 + math.sin(2 * math.Pi * h / 24.0) * 3
      val drift = if (d == 4) h / 24.0 * 2.0 else 0.0 // +2 per day
      (s"dev-$d", "Trondheim", Schemas.EpochStart + h * 3600L, base + drift)
    }
    val df = rows.toDF("deviceId", "city", "tsEpoch", "no2Ugm3")
    val slopes = OutlierDetection.residualDrift(df, "no2Ugm3")
      .collect().map(r => r.getString(0) -> r.getAs[Double]("residualSlopePerDay")).toMap
    assert(slopes("dev-4") > 1.0, s"slopes=$slopes")
    assert(math.abs(slopes("dev-1")) < 0.5)
  }

  test("decayingSensors finds the injected decaying node in the fixture") {
    val found = OutlierDetection.decayingSensors(TestData.readings, "no2Ugm3")
      .collect().map(_.getString(0)).toSet
    assert(found.contains(SensorFleet.DecayingDeviceId),
      s"found=$found expected to include ${SensorFleet.DecayingDeviceId}")
  }

  test("healthy fixture sensors are not flagged as decaying en masse") {
    val found = OutlierDetection.decayingSensors(TestData.readings, "no2Ugm3").count()
    assert(found <= 3, s"flagged=$found of 14")
  }
}
