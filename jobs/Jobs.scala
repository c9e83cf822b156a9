package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables._

/** Shared session bootstrap for the spark-submit entrypoints. Each job
  * reproduces one table of EXPERIMENTS.md; `args(0)` optionally overrides
  * the scale factor (default 0.1, the benchmark scale).
  */
object JobSession {
  def build(name: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      // A T1/T3/T4/T5 pass uses ~300 generated classes; the default 100 evicts them.
      .config("spark.sql.codegen.cache.maxEntries", 1000)
      // A listing job costs one task per path; a local stat on the driver is cheaper.
      .config("spark.sql.sources.parallelPartitionDiscovery.threshold", Int.MaxValue)
      // One executor class loader for every session: each streaming run reuses compiled classes.
      .config("spark.sql.artifact.isolation.enabled", false)
      .getOrCreate()
    // One shuffle partition per core (`local[N]` gives N): each partition costs a
    // fixed amount per micro-batch, so more partitions than cores only add overhead.
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }
  def sf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(0.1)
}

/** T1: Table 1 — external data integration matrix. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-table1")
    println(Table1Integration.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** T2: §3 deployment stats via the full streaming pipeline. */
object DeploymentStatsJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-deployment")
    println(Table2Deployment.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** T3: Fig 4 battery analysis. */
object BatteryJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-battery")
    println(Table3Battery.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** T4: Fig 5 CO2-vs-traffic study. */
object Co2TrafficJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-co2traffic")
    println(Table4Co2Traffic.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** T5: §2.4 calibration and grounding. */
object CalibrationJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-calibration")
    println(Table5Calibration.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** T6: §2.3 dataport fault-injection scenario (fixed 3-day horizon). */
object NetworkMonitorJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-monitor")
    println(Table6Monitoring.compute(spark).rendered)
    spark.stop()
  }
}

/** T7: streaming ingestion throughput. */
object ThroughputJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-throughput")
    println(Table7Throughput.compute(spark, JobSession.sf(args)).rendered)
    spark.stop()
  }
}

/** Dashboard data products (Fig 6/7/8) at a scale factor — prints the
  * real-time air-quality panel, traffic panel, city summary, and the 3D
  * city-model export with a synthetic injection scenario.
  */
object DashboardJob {
  def main(args: Array[String]): Unit = {
    import org.apache.spark.sql.functions._
    import repro.core._
    import repro.external.{CityModel, HereTraffic}
    import repro.iot.Cities
    val spark = JobSession.build("ctt-dashboard")
    val sf = JobSession.sf(args)
    val readings = Pipeline.okReadings(spark, sf).cache()
    val traffic = HereTraffic.jamFactors(spark, sf)
    println(TableFmt.renderDF("Air quality panel (latest per sensor)",
      Dashboard.latestAirQuality(readings).orderBy(col("deviceId"))))
    println(TableFmt.renderDF("Traffic panel (latest per link)",
      Dashboard.trafficPanel(traffic).orderBy(col("linkId"))))
    val end = Schemas.EpochStart + Schemas.days(sf) * 86400L
    println(TableFmt.renderDF("City summary (last simulated hour)",
      Dashboard.citySummary(readings, end)))
    val buildings = CityModel.buildings(spark, Cities.Vejle)
    val agg = CityModelExport.sensorAggregates(
      readings.where(col("city") === Cities.Vejle.name), Schemas.EpochStart, end)
    val levels = CityModelExport.buildingLevels(buildings, agg).cache()
    println(TableFmt.renderDF("3D city model: CAQI distribution",
      levels.groupBy(col("caqi"), col("caqiName")).count().orderBy(col("caqi"))))
    val injected = CityModelExport.injectSource(levels,
      CityModelExport.SyntheticSource(Cities.Vejle.lat, Cities.Vejle.lon, 120.0, 60.0))
    println(TableFmt.renderDF("3D city model after synthetic injection: CAQI distribution",
      injected.groupBy(col("caqi"), col("caqiName")).count().orderBy(col("caqi"))))
    spark.stop()
  }
}

/** Continuous-style ingestion: simulate, write the bridge, stream on a new
  * checkpoint into a new or empty TSDB directory (arguments: sf, outDir).
  */
object IngestJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ctt-ingest")
    val sf = JobSession.sf(args)
    val out = args.lift(1).getOrElse("/tmp/ctt-tsdb")
    val work = repro.core.Pipeline.freshWorkDir("ingest")
    val bridge = new java.io.File(work, "bridge").toString
    val chk = new java.io.File(work, "chk").toString
    val n = repro.core.Pipeline.writeBridge(spark, sf, 7L, bridge)
    repro.core.Pipeline.ingestBridge(spark, bridge, chk, repro.tsdb.TsdbStore(out))
    println(s"ingested $n packets into $out")
    spark.stop()
  }
}
