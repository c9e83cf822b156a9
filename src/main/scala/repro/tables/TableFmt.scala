package repro.tables

import org.apache.spark.sql.DataFrame

/** Plain-text table rendering for the bench/job outputs recorded in
  * EXPERIMENTS.md.
  */
object TableFmt {

  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  /** Render the first 100 rows of a DataFrame. */
  def renderDF(title: String, df: DataFrame): String = {
    val headers = df.columns.toSeq
    val rows = df.limit(100).collect().toSeq.map(_.toSeq.map {
      case null => "-"
      case d: Double => f"$d%.3f"
      case x => x.toString
    })
    render(title, headers, rows)
  }

  def fmt(d: Double): String = f"$d%.3f"
}
