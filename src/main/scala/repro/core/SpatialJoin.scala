package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Spatial integration of sensors with external sources: nearest official
  * station or traffic link, and inverse-distance interpolation onto the
  * 3D-city-model grid.
  *
  * Right-hand sides are small dimension sets (stations, links, buildings),
  * so nearest-neighbour is a distance-filtered cross join + rank — the
  * shuffle-safe plan at this dimensionality.
  */
object SpatialJoin {

  /** For each left row, attach the nearest right row within `maxKm`.
    *
    * `left` needs (leftKey, lat, lon); `right` needs (rightKey, lat, lon).
    * Output: left columns + rightKey + `distKm`, one row per left key
    * (ties broken by rightKey for determinism).
    */
  def nearest(left: DataFrame, leftKey: String, right: DataFrame, rightKey: String,
              maxKm: Double): DataFrame = {
    val r = right.select(col(rightKey), col("lat").as("_rlat"), col("lon").as("_rlon"))
    val joined = left.crossJoin(r)
      .withColumn("distKm",
        GeoFunctions.haversineKmCol(col("lat"), col("lon"), col("_rlat"), col("_rlon")))
      .where(col("distKm") <= maxKm)
    firstPerKey(joined, leftKey, col("distKm"), col(rightKey)).drop("_rlat", "_rlon")
  }

  /** Inverse-distance-weighted interpolation of sensor values onto target
    * points (e.g. building centroids of the 3D city model).
    *
    * `points` needs (pointKey, lat, lon); `samples` needs (lat, lon) +
    * `valueCols`. Only samples within `radiusKm` contribute; weight 1/d²
    * with a 1 m floor to keep co-located points finite.
    */
  def idwInterpolate(points: DataFrame, pointKey: String, samples: DataFrame,
                     valueCols: Seq[String], radiusKm: Double): DataFrame = {
    val s = samples.select(
      (valueCols.map(col) :+ col("lat").as("_slat") :+ col("lon").as("_slon")): _*)
    val joined = points.crossJoin(s)
      .withColumn("distKm",
        GeoFunctions.haversineKmCol(col("lat"), col("lon"), col("_slat"), col("_slon")))
      .where(col("distKm") <= radiusKm)
      .withColumn("wgt", lit(1.0) / pow(greatest(col("distKm"), lit(0.001)), 2))
    val aggs = valueCols.map(c =>
      (sum(col(c) * col("wgt")) / sum(col("wgt"))).as(c)) :+
      count(lit(1)).as("nSamples")
    joined.groupBy(col(pointKey), col("lat"), col("lon"))
      .agg(aggs.head, aggs.tail: _*)
  }
}
