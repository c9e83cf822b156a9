package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Spatial primitives of the pipeline.
  *
  * The great-circle distance has one formula in two forms: a plain Scala
  * function for code that runs inside typed `Dataset` lambdas (the radio
  * model) and a Column expression built from Spark built-ins for DataFrame
  * joins (nearest station/link, interpolation onto the city model).
  */
object GeoFunctions {

  val EarthRadiusKm = 6371.0088

  /** Great-circle distance in kilometres (plain Scala, used by simulators). */
  def haversineKm(lat1: Double, lon1: Double, lat2: Double, lon2: Double): Double = {
    val dLat = math.toRadians(lat2 - lat1)
    val dLon = math.toRadians(lon2 - lon1)
    val a = math.pow(math.sin(dLat / 2), 2) +
      math.cos(math.toRadians(lat1)) * math.cos(math.toRadians(lat2)) *
        math.pow(math.sin(dLon / 2), 2)
    2 * EarthRadiusKm * math.asin(math.min(1.0, math.sqrt(a)))
  }

  /** [[haversineKm]] as a Column expression of Spark built-ins; null if
    * any input is null.
    */
  def haversineKmCol(lat1: Column, lon1: Column, lat2: Column, lon2: Column): Column = {
    val r = math.toRadians(1.0)
    val dLat = (lat2 - lat1) * r
    val dLon = (lon2 - lon1) * r
    val a = pow(sin(dLat / 2), 2) +
      cos(lat1 * r) * cos(lat2 * r) * pow(sin(dLon / 2), 2)
    // Clamp with `when`, not `least`: `least` skips nulls and would turn a
    // null input into half the circumference.
    lit(2 * EarthRadiusKm) * asin(when(a >= 1.0, lit(1.0)).otherwise(sqrt(a)))
  }

  /** Size of one grid cell in degrees latitude (~111 m of northing). */
  val GridCellDegLat = 0.001

  /** Snap a point to a ~100 m analysis grid cell id, "r<row>c<col>".
    * Longitude step is widened by 1/cos(lat0) so cells are roughly square
    * at the city's latitude.
    */
  def gridCellId(lat: Double, lon: Double, lat0: Double): String = {
    val dLon = GridCellDegLat / math.cos(math.toRadians(lat0))
    s"r${math.floor(lat / GridCellDegLat).toLong}c${math.floor(lon / dLon).toLong}"
  }

  /** Column version of [[gridCellId]]. */
  def gridCellIdCol(lat: Column, lon: Column, lat0: Double): Column = {
    val dLon = GridCellDegLat / math.cos(math.toRadians(lat0))
    concat(lit("r"), floor(lat / GridCellDegLat).cast("long"),
           lit("c"), floor(lon / lit(dLon)).cast("long"))
  }
}
