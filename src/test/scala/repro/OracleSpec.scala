package repro

/** Negative controls: the DuckDB oracle rejects a wrong result and a
  * mismatched column name, so a passing oracle check means something.
  */
class OracleSpec extends SparkSpec {

  test("oracle catches a wrong result (negative control)") {
    import spark.implicits._
    val df = Seq(("a", 1L)).toDF("k", "n")
    val bad = Seq(("a", 2L)).toDF("k", "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(bad, "SELECT k, count(*) AS n FROM t GROUP BY k", "t" -> df)
    }
  }

  test("oracle catches a column-name mismatch (negative control)") {
    import spark.implicits._
    val df = Seq(("a", 1L)).toDF("k", "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT k, count(*) AS wrong FROM t GROUP BY k", "t" -> df)
    }
  }
}
