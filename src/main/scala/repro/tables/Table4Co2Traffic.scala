package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.{Co2TrafficAnalysis, Pipeline}
import repro.external.HereTraffic

/** Fig 5 as a table: the CO2-dynamics-vs-traffic study. The paper's
  * conclusions to reproduce: (a) CO2 and the jam factor "exhibit different
  * patterns and have no apparent correlation"; (b) traffic-driven pollutants
  * do correlate; (c) CO2 dynamics involve several factors (weather, diurnal
  * cycle).
  */
object Table4Co2Traffic {

  final case class CorrRow(pollutant: String, corrWithJam: Double, verdict: String)
  final case class FactorRow(factor: String, corrWithCo2: Double)
  final case class LagRow(lagHours: Int, corrCo2Jam: Double)

  final case class Result(correlations: Seq[CorrRow], factors: Seq[FactorRow],
                          lags: Seq[LagRow], co2PeakHour: Int, jamPeakHour: Int,
                          rendered: String)

  def verdictOf(c: Double): String =
    if (math.abs(c) < 0.3) "no apparent correlation"
    else if (math.abs(c) < 0.6) "moderate correlation"
    else "strong correlation"

  def compute(spark: SparkSession, sf: Double, seed: Long = 7L): Result = {
    val readings = Pipeline.okReadingsCached(spark, sf, seed)
    // A table caches a DataFrame only when two or more actions read it.
    val aligned = Co2TrafficAnalysis.alignHourly(readings,
      HereTraffic.jamFactors(spark, sf, seed), HereTraffic.linksDF(spark)).cache()

    val corrs = Co2TrafficAnalysis.pollutantTrafficCorrelations(aligned,
      Seq("co2Ppm", "no2Ugm3", "pm10Ugm3")).collect().toSeq
      .map(r => CorrRow(r.getString(0), r.getDouble(1), verdictOf(r.getDouble(1))))

    val factors = Co2TrafficAnalysis.co2FactorMatrix(aligned).collect().toSeq
      .map(r => FactorRow(r.getString(0), r.getDouble(1)))

    val lags = Co2TrafficAnalysis.laggedCorrelation(aligned, "co2Ppm", Seq(-2, -1, 0, 1, 2))
      .collect().toSeq.map(r => LagRow(r.getInt(0), r.getDouble(1)))

    val Seq(co2Peak, jamPeak) =
      Co2TrafficAnalysis.diurnalPeakHours(aligned, Seq("co2Ppm", "jamFactor"))

    aligned.unpersist()

    val t1 = TableFmt.render(
      f"CO2 dynamics vs traffic (Fig 5), SF=$sf%.2f — hourly, nearest link",
      Seq("Pollutant", "corr(·, jamFactor)", "Verdict"),
      corrs.map(c => Seq(c.pollutant, TableFmt.fmt(c.corrWithJam), c.verdict)))
    val t2 = TableFmt.render(
      "CO2 candidate factors (\"may be affected by many factors\")",
      Seq("Factor", "corr(CO2, factor)"),
      factors.map(f => Seq(f.factor, TableFmt.fmt(f.corrWithCo2))))
    val t3 = TableFmt.render(
      "Lagged corr(CO2, jam(t+lag))",
      Seq("LagHours", "corr"),
      lags.map(l => Seq(l.lagHours.toString, TableFmt.fmt(l.corrCo2Jam))))
    val peaks = s"diurnal peak hour: CO2=$co2Peak jamFactor=$jamPeak " +
      "(different patterns)"
    Result(corrs, factors, lags, co2Peak, jamPeak,
      Seq(t1, t2, t3, peaks).mkString("\n\n"))
  }
}
