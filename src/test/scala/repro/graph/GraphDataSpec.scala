package repro.graph

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SimTestKit

class GraphDataSpec extends SimTestKit {

  test("fromLocal undirected materializes both directions") {
    val g = GraphData.fromLocal(spark, "u2", 2, Seq((0, 1)), undirected = true)
    assert(g.m == 2)
    assert(g.csr.inDeg(0) == 1 && g.csr.inDeg(1) == 1)
  }

  test("csr matches the edges DataFrame") {
    val g = rnd40
    val dfEdges = g.edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(g.csr.edgePairs.toSet == dfEdges)
    assert(g.csr.m == g.m)
  }

  test("pEdges row count equals m and weights are positive") {
    val g = rnd60u
    assert(g.pEdges.count() == g.m)
    assert(g.pEdges.filter("w <= 0 or w > 1").count() == 0)
  }

  test("toString carries name, n and m") {
    val s = pair.toString
    assert(s.contains("pair") && s.contains("n=3") && s.contains("m=2"))
  }

  test("unpersistAll leaves the graph reusable") {
    val g = GraphGen.cycle(spark, 5)
    assert(g.m == 5)
    g.unpersistAll()
    assert(g.edges.count() == 5) // recomputable after unpersist
  }

  /** Spark jobs started while `f` runs, counted by a listener. */
  private def jobsDuring(f: => Unit): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some("jobsDuring") => jobs.incrementAndGet()
          case Some("jobsDuring-end") => drained.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("jobsDuring", "counted")
      f
      // Events arrive in order: once this marker job is seen, f's jobs are counted.
      sc.setJobGroup("jobsDuring-end", "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(60, TimeUnit.SECONDS), "listener bus did not deliver the marker job")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    jobs.get
  }

  test("unpersistAll starts no Spark job") {
    val fresh = GraphGen.localRandom(spark, "fresh", 30, 90, seed = 9)
    assert(jobsDuring(fresh.unpersistAll()) == 0, "on a graph whose edges were never built")
    val used = GraphGen.localRandom(spark, "used", 30, 90, seed = 9)
    assert(used.m == 90 && used.csr.m == 90)
    assert(jobsDuring(used.unpersistAll()) == 0, "on a graph whose edges and CSR were built")
  }

  test("csr rejects an id outside 0..n-1 instead of narrowing it onto a node") {
    import spark.implicits._
    val wide = (1L << 32) + 1 // narrows to node 1 as an Int
    val raw = Seq((wide, 0L), (2L, 3L)).toDF("src", "dst")
    val e = intercept[IllegalArgumentException](new GraphData(spark, "wide", 4, raw).csr)
    assert(e.getMessage.contains(s"edge ($wide,0)") && e.getMessage.contains("n = 4"), e.getMessage)
    val neg = Seq((2L, -1L)).toDF("src", "dst")
    intercept[IllegalArgumentException](new GraphData(spark, "neg", 4, neg).csr)
  }
}
