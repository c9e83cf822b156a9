package repro

import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run,
  * built by the jobs' own `JobSession.build`.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.build("repro")
    // One line in test output that shows the driver heap and that the
    // session's settings took effect: `getOrCreate` ignores static settings
    // when a session already exists (DESIGN.md, "Session" row).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")} " +
      s"artifactIsolation=${s.conf.get("spark.sql.artifact.isolation.enabled")}"
    )
    s
  }
}
