package repro

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.{col, row_number}

package object core {

  /** The first row of each `key` group under `order`: `row_number` over the
    * group, keep rank 1. The pick among rows tied on every `order` column is
    * Spark's, so end `order` with a unique column where that matters.
    */
  def firstPerKey(df: DataFrame, key: String, order: Column*): DataFrame =
    df.withColumn("_rank", row_number().over(Window.partitionBy(col(key)).orderBy(order: _*)))
      .where(col("_rank") === 1)
      .drop("_rank")
}
