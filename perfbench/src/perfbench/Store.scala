package perfbench

import java.io.File
import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import repro.Oracle
import repro.iot.SensorFleet
import repro.tsdb.TsdbStore

/** The Fig 6 dashboard panels against a store: `latest`, `downsample`
  * (last 24 h, 60-minute average) and `query` (last 7 days, one device).
  */
final class Panels(c: Ctx, store: TsdbStore, endEpoch: Long) {
  import Panels._
  private val spark = c.spark
  /** (kind, latency ms, files read) per completed request. */
  val done = mutable.ArrayBuffer.empty[(String, Double, Long)]

  def request(kind: String, metric: String, device: String): DataFrame = kind match {
    case "latest" => store.latest(spark, metric)
    case "downsample" => store.downsample(spark, metric, endEpoch - 86400L, endEpoch, 60)
    case "query" => store.query(spark, metric, endEpoch - 7 * 86400L, endEpoch, Map("deviceId" -> device))
  }

  /** `n` requests from one client in a closed loop, cycling through the
    * kinds; metrics and devices come from a sequence seeded by the run's
    * seed. Latency runs from issuing the request to the rows on the driver.
    */
  def closedLoop(n: Int): Unit = {
    val rng = new java.util.Random(c.seed)
    val metrics = TsdbStore.StandardMetrics.values.toIndexedSeq.sorted
    val devices = SensorFleet.nodes(c.seed).map(_.deviceId).toIndexedSeq
    (0 until n).foreach { i =>
      val kind = Kinds(i % Kinds.size)
      val (metric, device) = (metrics(rng.nextInt(metrics.size)), devices(rng.nextInt(devices.size)))
      val ts = System.nanoTime()
      c.attempt(s"panel $kind")(c.span(s"tsdb.$kind", req = i + 1L) {
        val df = request(kind, metric, device); df.collect(); df
      }).foreach { df =>
        done += ((kind, (System.nanoTime() - ts) / 1e6, if (c.traced) filesRead(df) else 0L))
      }
    }
    Kinds.foreach(k => c.layer(s"tsdb.${k}_ms") = Stats.median(done.filter(_._1 == k).map(_._2).toSeq))
    if (c.traced) c.layer("tsdb.files_read") = done.map(_._3.toDouble).sum / done.size
  }

  /** Each panel kind once against DuckDB, which reads the store's Parquet
    * files itself.
    */
  def checkWithOracle(): Unit = c.span("check.oracle_panels") {
    val metric = "air.no2"
    val device = SensorFleet.nodes(c.seed).head.deviceId
    val pts = s"(SELECT * FROM read_parquet('${store.path}/metric=$metric/*/*.parquet'))"
    val (day, week, end) = (endEpoch - 86400L, endEpoch - 7 * 86400L, endEpoch)
    val sql = Map(
      "latest" -> (s"SELECT '$metric' AS metric, deviceId, city, tsEpoch, value FROM (SELECT *, " +
        s"row_number() OVER (PARTITION BY deviceId ORDER BY tsEpoch DESC) AS rn FROM $pts) WHERE rn = 1"),
      "downsample" -> ("SELECT deviceId, city, (tsEpoch // 3600) * 3600 AS windowStartEpoch, " +
        s"AVG(value) AS value FROM $pts WHERE tsEpoch >= $day AND tsEpoch < $end " +
        "GROUP BY deviceId, city, windowStartEpoch"),
      "query" -> (s"SELECT '$metric' AS metric, tsEpoch, value, deviceId, city FROM $pts " +
        s"WHERE deviceId = '$device' AND tsEpoch >= $week AND tsEpoch < $end"))
    Kinds.foreach { k =>
      c.check(s"panel $k vs DuckDB") {
        Oracle.assertEquivalent(request(k, metric, device), sql(k)); true
      }
    }
  }
}

object Panels {
  val Kinds: Seq[String] = Seq("latest", "downsample", "query")

  /** Files the scans of an executed query read, from the scan metrics. */
  def filesRead(df: DataFrame): Long = {
    def scans(p: SparkPlan): Seq[SparkPlan] = p match {
      case a: AdaptiveSparkPlanExec => scans(a.executedPlan)
      case q: QueryStageExec => scans(q.plan)
      case other if other.children.isEmpty => Seq(other)
      case other => other.children.flatMap(scans)
    }
    scans(df.queryExecution.executedPlan).flatMap(_.metrics.get("numFiles")).map(_.value).sum
  }
}

/** File layout of a store: points, files, widest partition, bytes. */
object StoreStats {
  def fill(c: Ctx, store: TsdbStore): Unit = {
    val files = walk(new File(store.path)).filter(_.getName.endsWith(".parquet"))
    val perDir = files.groupBy(_.getParentFile).values.map(_.size)
    c.layer ++= Seq(
      "tsdb.points" -> c.spark.read.parquet(store.path).count().toDouble,
      "tsdb.files" -> files.size.toDouble,
      "tsdb.files_per_partition_max" -> (0 +: perDir.toSeq).max.toDouble,
      "tsdb.bytes" -> files.map(_.length).sum.toDouble)
  }
  private def walk(f: File): Seq[File] =
    if (f.isDirectory) Option(f.listFiles).toSeq.flatten.flatMap(walk) else Seq(f)
}
