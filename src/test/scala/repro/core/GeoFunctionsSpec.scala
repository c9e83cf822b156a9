package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.rng.Seed
import repro.{Props, SparkSpec}

class GeoFunctionsSpec extends SparkSpec {
  import GeoFunctions._

  test("haversine: zero distance at identical points") {
    assert(haversineKm(63.43, 10.39, 63.43, 10.39) == 0.0)
  }

  test("haversine: known Trondheim-Vejle distance ~860 km") {
    val d = haversineKm(63.4305, 10.3951, 55.7090, 9.5357)
    assert(d > 830 && d < 890, s"d=$d")
  }

  test("haversine: one degree of latitude ~111.2 km") {
    val d = haversineKm(60.0, 10.0, 61.0, 10.0)
    assert(math.abs(d - 111.2) < 0.5, s"d=$d")
  }

  private val coord = for {
    la <- Gen.choose(-80.0, 80.0); lo <- Gen.choose(-179.0, 179.0)
  } yield (la, lo)

  test("haversine: symmetric") {
    Props.check(Prop.forAll(coord, coord) { (a, b) =>
      val d1 = haversineKm(a._1, a._2, b._1, b._2)
      val d2 = haversineKm(b._1, b._2, a._1, a._2)
      math.abs(d1 - d2) < 1e-9
    })
  }

  test("haversine: triangle inequality on sampled triples") {
    Props.check(Prop.forAll(coord, coord, coord) { (a, b, c) =>
      val ab = haversineKm(a._1, a._2, b._1, b._2)
      val bc = haversineKm(b._1, b._2, c._1, c._2)
      val ac = haversineKm(a._1, a._2, c._1, c._2)
      ac <= ab + bc + 1e-6
    })
  }

  test("haversine: non-negative and bounded by half circumference") {
    Props.check(Prop.forAll(coord, coord) { (a, b) =>
      val d = haversineKm(a._1, a._2, b._1, b._2)
      d >= 0 && d <= math.Pi * EarthRadiusKm + 1e-6
    })
  }

  test("column builder matches scala implementation") {
    import spark.implicits._
    import org.apache.spark.sql.functions.col
    val pairs = (63.4305, 10.3951, 55.7090, 9.5357) +:
      Gen.listOfN(200, Gen.zip(coord, coord)).pureApply(Gen.Parameters.default, Seed(7L))
        .map { case (a, b) => (a._1, a._2, b._1, b._2) }
    val got = pairs.toDF("a", "b", "c", "d")
      .select(GeoFunctions.haversineKmCol(col("a"), col("b"), col("c"), col("d")))
      .collect().map(_.getDouble(0)).toSeq
    pairs.zip(got).foreach { case ((a, b, c, d), g) =>
      val exp = haversineKm(a, b, c, d)
      assert(math.abs(g - exp) < 1e-9, s"($a, $b, $c, $d): col=$g scala=$exp")
    }
    val nullLat = Seq[(Option[Double], Double, Double, Double)]((None, 10.39, 55.71, 9.54))
      .toDF("a", "b", "c", "d")
      .select(GeoFunctions.haversineKmCol(col("a"), col("b"), col("c"), col("d"))).head()
    assert(nullLat.isNullAt(0))
  }

  test("gridCellId: same point same cell, distant points different cells") {
    val a = gridCellId(63.43001, 10.39001, 63.43)
    val b = gridCellId(63.43002, 10.39002, 63.43)
    val c = gridCellId(63.44, 10.42, 63.43)
    assert(a == b)
    assert(a != c)
  }

  test("gridCellId column version agrees with scala version") {
    import spark.implicits._
    import org.apache.spark.sql.functions.col
    val pts = Seq((63.4311, 10.3999), (63.4199, 10.4401), (55.7090, 9.5357))
    val df = pts.toDF("lat", "lon")
      .select(GeoFunctions.gridCellIdCol(col("lat"), col("lon"), 63.43).as("cell"))
    val got = df.collect().map(_.getString(0)).toSeq
    val exp = pts.map { case (la, lo) => gridCellId(la, lo, 63.43) }
    assert(got == exp)
  }

  test("grid cells are ~100m: neighbours one cell apart") {
    val c1 = gridCellId(63.4300, 10.3950, 63.43)
    val c2 = gridCellId(63.4311, 10.3950, 63.43) // ~120m north
    assert(c1 != c2)
  }
}
