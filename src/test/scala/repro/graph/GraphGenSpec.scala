package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SimTestKit}

class GraphGenSpec extends SimTestKit {

  test("cycle: n edges, every node in-degree 1") {
    val g = GraphGen.cycle(spark, 9)
    assert(g.m == 9)
    (0 until 9).foreach(v => assert(g.csr.inDeg(v) == 1))
  }

  test("path: n-1 edges, head has in-degree 0") {
    val g = GraphGen.path(spark, 5)
    assert(g.m == 4)
    assert(g.csr.inDeg(0) == 0)
    (1 until 5).foreach(v => assert(g.csr.inDeg(v) == 1))
  }

  test("star: 2(n-1) directed edges, center degree n-1") {
    val g = GraphGen.star(spark, 6)
    assert(g.m == 10)
    assert(g.csr.inDeg(0) == 5)
    (1 until 6).foreach(v => assert(g.csr.inDeg(v) == 1))
  }

  test("complete: n(n-1) directed edges") {
    val g = GraphGen.complete(spark, 6)
    assert(g.m == 30)
    (0 until 6).foreach(v => assert(g.csr.inDeg(v) == 5))
  }

  test("sharedParentPair topology") {
    assert(pair.m == 2 && pair.csr.inDeg(0) == 1 && pair.csr.inDeg(1) == 1 && pair.csr.inDeg(2) == 0)
  }

  test("localRandom: requested edge count, no self-loops, deterministic") {
    val g1 = GraphGen.localRandom(spark, "lr1", 30, 120, seed = 9)
    val g2 = GraphGen.localRandom(spark, "lr2", 30, 120, seed = 9)
    assert(g1.m == 120)
    assert(g1.csr.edgePairs.toSet == g2.csr.edgePairs.toSet)
    g1.csr.edgePairs.foreach { case (s, d) => assert(s != d) }
  }

  test("localRandom undirected: symmetric edge set") {
    val es = rnd60u.csr.edgePairs.toSet
    es.foreach { case (s, d) => assert(es.contains((d, s)), s"missing reverse of ($s,$d)") }
  }

  test("erdosRenyi: m close to target, ids in range, no self-loops") {
    val g = GraphGen.erdosRenyi(spark, "er", 500, 3000, seed = 21)
    assert(g.m > 2800 && g.m <= 3120, s"m=${g.m}")
    val stats = g.edges.agg(min("src"), max("src"), min("dst"), max("dst")).head()
    assert(stats.getLong(0) >= 0 && stats.getLong(1) < 500 && stats.getLong(3) < 500)
    assert(g.edges.where(col("src") === col("dst")).count() == 0)
  }

  test("erdosRenyi is deterministic in the seed") {
    val a = GraphGen.erdosRenyi(spark, "er-a", 200, 800, seed = 5).m
    val b = GraphGen.erdosRenyi(spark, "er-b", 200, 800, seed = 5).m
    assert(a == b)
  }

  test("chungLu: m close to target, no self-loops") {
    val g = GraphGen.chungLu(spark, "cl", 1000, 6000, alpha = 0.7, seed = 33)
    assert(g.m > 3600 && g.m <= 7800, s"m=${g.m}")
    assert(g.edges.where(col("src") === col("dst")).count() == 0)
  }

  test("chungLu undirected: symmetric edge DataFrame") {
    val g = GraphGen.chungLu(spark, "clu", 400, 2400, undirected = true, seed = 44)
    val missing = g.edges.as("e")
      .join(g.edges.select(col("dst").as("src"), col("src").as("dst")).as("r"),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
  }

  test("chungLu produces a skewed (power-law-ish) in-degree distribution") {
    val g = GraphGen.chungLu(spark, "cls", 2000, 12000, alpha = 0.7, seed = 55)
    def inDegrees(g: GraphData) = (0 until g.n).map(g.csr.inDeg(_).toLong).filter(_ > 0).sorted.reverse
    val degs = inDegrees(g)
    val total = degs.sum.toDouble
    val top1pct = degs.take(math.max(1, degs.length / 100)).sum.toDouble
    // Hubs should carry far more than their uniform share of edges.
    assert(top1pct / total > 0.10, f"top-1%% nodes carry ${top1pct / total}%.3f of in-degree")
    // ...while an Erdős–Rényi graph of the same size does not.
    val er = GraphGen.erdosRenyi(spark, "ers", 2000, 12000, seed = 55)
    val edegs = inDegrees(er)
    val etop = edegs.take(math.max(1, edegs.length / 100)).sum.toDouble
    assert(top1pct / total > 2 * etop / edegs.sum)
  }

  test("GraphData dedupes and drops self-loops from raw input") {
    import spark.implicits._
    val raw = Seq((0L, 1L), (0L, 1L), (2L, 2L), (1L, 0L)).toDF("src", "dst")
    val g = new GraphData(spark, "dedup", 3, raw)
    assert(g.m == 2)
  }

  test("in-degree computation matches DuckDB") {
    val df = rnd40.edges
    val sparkDeg = df.groupBy(col("dst").as("id")).agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(sparkDeg,
      "SELECT dst AS id, COUNT(*) AS deg FROM e GROUP BY dst",
      "e" -> df)
  }

  test("pEdges weights match DuckDB 1/in-degree") {
    val sparkW = rnd40.pEdges
    Oracle.assertEquivalent(sparkW,
      """SELECT e.src AS src, e.dst AS dst, 1.0 / d.deg AS w
        |FROM e JOIN (SELECT dst, COUNT(*) AS deg FROM e GROUP BY dst) d
        |ON e.dst = d.dst""".stripMargin,
      "e" -> rnd40.edges)
  }

  test("graphBytes is 8 bytes per directed edge") {
    assert(cycle7.graphBytes == 7 * 8)
  }
}
