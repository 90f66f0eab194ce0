package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A directed graph held as a Spark DataFrame of edges.
  *
  * `edges` has columns `src: Long`, `dst: Long` (src ∈ I(dst)), no self-loops,
  * no duplicates. Undirected input graphs are materialized with both
  * directions present, matching the SimRank convention of the paper.
  *
  * The class derives, lazily: the cached edge list `edges`, and `csr`, a
  * driver-side CSR of in-adjacency for walk simulation and every mat-vec
  * (collected once; graphs here are ≤ a few M edges).
  */
final class GraphData(val spark: SparkSession, val name: String, val n: Int, rawEdges: DataFrame) {

  /** Whether `edges` has been built (and cached). */
  @volatile private var edgesBuilt = false

  /** Canonical cached edge list (src, dst). */
  lazy val edges: DataFrame = {
    val parts = math.max(4, (n / 20000) * 4)
    val e = rawEdges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .where(col("src") =!= col("dst"))
      .distinct()
      .repartition(parts)
      .cache()
    e.count() // materialize so downstream timings exclude generation
    edgesBuilt = true
    e
  }

  lazy val m: Long = edges.count()

  /** Nonzeros of P as a DataFrame, uncached: (src, dst, w) with
    * w = 1/d_in(dst). No query reads it; it is kept only because
    * `perfbench/src/main/scala/repro/perfbench/Trace.scala` times building it,
    * and goes with the next benchmark change.
    */
  def pEdges: DataFrame = {
    val inDeg = edges.groupBy(col("dst")).agg(count(lit(1)).as("deg"))
    edges.join(inDeg, "dst").select(col("src"), col("dst"), (lit(1.0) / col("deg")).as("w"))
  }

  /** Driver-side CSR of the same graph: the walks' adjacency and the one
    * mat-vec engine. An id outside `0 until n` is rejected before it is
    * narrowed to an Int, so it cannot wrap onto a valid node.
    */
  lazy val csr: Csr = {
    val pairs = edges.collect().map { r =>
      val (s, d) = (r.getLong(0), r.getLong(1))
      require(0 <= s && s < n && 0 <= d && d < n, s"edge ($s,$d) of $name is out of range for n = $n")
      (s.toInt, d.toInt)
    }
    Csr.fromEdges(n, pairs.toIndexedSeq)
  }

  /** Approximate in-memory size of the edge list in bytes (two 4-byte ids per
    * directed edge) — the "Graph size" row of the paper's Table 3.
    */
  def graphBytes: Long = m * 8L

  /** Fails fast, naming the source and n, unless `source` is a node id. */
  def requireSource(source: Int): Unit =
    require(0 <= source && source < n, s"query source $source is out of range for $name (n = $n)")

  /** Drops the cached edge list; starts no Spark job, and builds nothing that
    * was not built.
    */
  def unpersistAll(): Unit = if (edgesBuilt) edges.unpersist()

  override def toString: String = s"GraphData($name, n=$n, m=$m)"
}

object GraphData {

  /** Build from an explicit local edge list (tests, closed-form graphs). */
  def fromLocal(spark: SparkSession, name: String, n: Int, pairs: Seq[(Int, Int)],
                undirected: Boolean = false): GraphData = {
    import spark.implicits._
    val dir = if (undirected) pairs.flatMap(e => Seq(e, e.swap)) else pairs
    val df = dir.map { case (s, d) => (s.toLong, d.toLong) }.toDF("src", "dst")
    new GraphData(spark, name, n, df)
  }
}
