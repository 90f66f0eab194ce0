package repro.linalg

import java.util.SplittableRandom
import org.apache.spark.sql.functions._
import repro.{Oracle, SimTestKit}
import repro.graph.GraphData

class MatvecSpec extends SimTestKit {

  private def randomVec(n: Int, seed: Long): Array[Double] = {
    val rng = new SplittableRandom(seed)
    Array.fill(n)(rng.nextDouble())
  }

  private val batteryNames = Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80")

  // The benchmark's traced run multiplies through `SparkEngine` and must
  // reproduce the public answers bit for bit, so these compare exactly.
  // (The names predate the CSR becoming the only engine; "LocalEngine" is
  // `Csr` itself now.)
  for (name <- batteryNames) test(s"SparkEngine.mulP equals LocalEngine.mulP on $name") {
    val g = battery.find(_.name == name).get
    val x = randomVec(g.n, 17)
    assert(java.util.Arrays.equals(new SparkEngine(g).mulP(x), g.csr.mulP(x)), s"mulP on ${g.name}")
  }

  for (name <- batteryNames) test(s"SparkEngine.mulPT equals LocalEngine.mulPT on $name") {
    val g = battery.find(_.name == name).get
    val x = randomVec(g.n, 19)
    assert(java.util.Arrays.equals(new SparkEngine(g).mulPT(x), g.csr.mulPT(x)), s"mulPT on ${g.name}")
  }

  test("zero vector maps to zero vector") {
    val g = rnd40
    val y = g.csr.mulP(new Array[Double](g.n))
    assert(y.forall(_ == 0.0))
  }

  /** `x` as an (id, v) DataFrame, and the result of a product as one. */
  private def vecDf(g: GraphData, x: Array[Double]) = {
    import g.spark.implicits._
    g.spark.createDataset(x.indices.map(i => (i.toLong, x(i)))).toDF("id", "v")
  }

  private def nonzeros(g: GraphData, y: Array[Double]) = {
    import g.spark.implicits._
    g.spark.createDataset(y.indices.collect { case i if y(i) != 0.0 => (i.toLong, y(i)) }).toDF("id", "v")
  }

  // Weights 1/d_in come from the edge list in SQL, independently of the CSR.
  private val weighted =
    "(SELECT e.src, e.dst, 1.0 / d.deg AS w FROM e JOIN (SELECT dst, COUNT(*) AS deg FROM e GROUP BY dst) d ON e.dst = d.dst)"

  test("mulP dataflow matches DuckDB join+aggregate") {
    val g = rnd40
    val x = randomVec(g.n, 23)
    Oracle.assertEquivalent(nonzeros(g, g.csr.mulP(x)),
      s"""SELECT p.src AS id, SUM(CAST(p.w AS DOUBLE) * CAST(v.v AS DOUBLE)) AS v
         |FROM $weighted p JOIN v ON p.dst = v.id GROUP BY p.src""".stripMargin,
      "e" -> g.edges, "v" -> vecDf(g, x))
  }

  test("mulPT dataflow matches DuckDB join+aggregate") {
    val g = rnd60u
    val x = randomVec(g.n, 29)
    Oracle.assertEquivalent(nonzeros(g, g.csr.mulPT(x)),
      s"""SELECT p.dst AS id, SUM(CAST(p.w AS DOUBLE) * CAST(v.v AS DOUBLE)) AS v
         |FROM $weighted p JOIN v ON p.src = v.id GROUP BY p.dst""".stripMargin,
      "e" -> g.edges, "v" -> vecDf(g, x))
  }

  test("mulP conserves mass on graphs without dead ends") {
    val g = cycle7 // every node has in-degree 1
    val x = randomVec(g.n, 31)
    val y = g.csr.mulP(x)
    assert(math.abs(y.sum - x.sum) < 1e-9)
  }

  test("columns of P sum to 1 exactly for nodes with in-degree > 0") {
    // Column j of P is row j of Pᵀ, so Pᵀ·1 holds the column sums.
    for (g <- Seq(rnd40, rnd60u, star8)) {
      val sums = g.csr.mulPT(Array.fill(g.n)(1.0))
      for (j <- 0 until g.n if g.csr.inDeg(j) > 0)
        assert(math.abs(sums(j) - 1.0) < 1e-9, s"${g.name} col $j")
    }
  }
}
