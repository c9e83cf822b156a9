package repro.tables

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{BatteryAnalysis, Pipeline}

/** Fig 4 as a table: per-node battery depletion/charge rates and the
  * Δlevel-by-hour-of-day summary split by sun-since-previous-package.
  */
object Table3Battery {

  final case class NodeRow(deviceId: String, city: String, nightRatePctPerH: Double,
                           sunRatePctPerH: Double, minLevelPct: Double,
                           maxLevelPct: Double, daysToEmpty: Option[Double])

  final case class HourRow(hourOfDay: Int, sunSincePrev: Boolean,
                           meanDeltaPct: Double, nPackets: Long)

  final case class Result(nodes: Seq[NodeRow], byHour: Seq[HourRow], rendered: String)

  def compute(spark: SparkSession, sf: Double, seed: Long = 7L): Result = {
    val readings = Pipeline.okReadingsCached(spark, sf, seed)

    val nodes = BatteryAnalysis.depletionEstimate(readings)
      .orderBy(col("deviceId")).collect().toSeq.map { r =>
        NodeRow(r.getAs[String]("deviceId"), r.getAs[String]("city"),
          r.getAs[Double]("nightRatePctPerH"), r.getAs[Double]("sunRatePctPerH"),
          r.getAs[Double]("minLevelPct"), r.getAs[Double]("maxLevelPct"),
          Option(r.getAs[java.lang.Double]("daysToEmptyAtNightRate")).map(_.doubleValue()))
      }

    val byHour = BatteryAnalysis.deltaByHour(readings).collect().toSeq.map { r =>
      HourRow(r.getAs[Int]("hourOfDay"), r.getAs[Boolean]("sunSincePrev"),
        r.getAs[Double]("meanDeltaPct"), r.getAs[Long]("nPackets"))
    }


    val t1 = TableFmt.render(
      f"Battery analysis (Fig 4) — per node, SF=$sf%.2f",
      Seq("Device", "City", "NightRate%/h", "SunRate%/h", "MinLevel", "MaxLevel",
        "DaysToEmpty@NightRate"),
      nodes.map(n => Seq(n.deviceId, n.city, TableFmt.fmt(n.nightRatePctPerH),
        TableFmt.fmt(n.sunRatePctPerH), TableFmt.fmt(n.minLevelPct),
        TableFmt.fmt(n.maxLevelPct), n.daysToEmpty.map(TableFmt.fmt).getOrElse("-"))))
    val t2 = TableFmt.render(
      "Battery Δlevel vs time of day (Fig 4 right panel, summarized)",
      Seq("Hour", "SunSincePrevPacket", "MeanDelta%", "Packets"),
      byHour.map(h => Seq(h.hourOfDay.toString, h.sunSincePrev.toString,
        TableFmt.fmt(h.meanDeltaPct), h.nPackets.toString)))
    Result(nodes, byHour, t1 + "\n\n" + t2)
  }
}
