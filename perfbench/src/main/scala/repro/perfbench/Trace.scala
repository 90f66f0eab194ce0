package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import repro.baselines.PrSim
import repro.core.{DiagEstimator, ExactSim, ExactSimConf, ExactSimResult, Linearized, Walks}
import repro.graph.GraphData
import repro.linalg.{LinEngine, SparkEngine}

/** Counts Spark jobs per job group. The traced run names each layer call as a
  * job group, so jobs are attributed to layers from outside the program.
  */
final class JobCounter(sc: SparkContext) extends SparkListener {
  private val byGroup = new ConcurrentHashMap[String, AtomicLong]()
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    byGroup.computeIfAbsent(group, _ => new AtomicLong()).incrementAndGet()
  }

  /** Jobs started so far in `group`, after every posted event is delivered. */
  def jobs(group: String): Long = {
    // The listener bus delivers events asynchronously; draining it makes the
    // count exact. `listenerBus` is Spark-internal, hence the reflection.
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
    Option(byGroup.get(group)).map(_.get).getOrElse(0L)
  }
}

/** Wall-clock spans of one traced call, recorded around the calls into each
  * layer. Each span's Spark jobs run in a job group unique to the call.
  */
final class Spans(sc: SparkContext, counter: JobCounter) {
  private val id = Spans.nextId.incrementAndGet()
  private val ms = mutable.LinkedHashMap.empty[String, Double]
  private var seq = 0

  /** Runs `f` as the span `name`. */
  def span[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val prev = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(s"$id/$name", name)
    try f
    finally {
      if (prev == null) sc.clearJobGroup() else sc.setJobGroup(prev, prev)
      ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
    }
  }

  def millis(name: String): Double = ms.getOrElse(name, 0.0)

  /** Spark jobs started inside the spans named `names`. */
  def jobs(names: String*): Long = names.map(n => counter.jobs(s"$id/$n")).sum

  /** A span name not used before in this call. */
  def fresh(prefix: String): String = { seq += 1; s"$prefix#$seq" }
}

object Spans {
  private val nextId = new AtomicLong()
}

/** Per-call timing around [[SparkEngine]]: every product gets its own job group
  * so its Spark jobs can be counted.
  */
final class TracedEngine(graph: GraphData, spans: Spans) extends LinEngine {
  private val inner = new SparkEngine(graph)
  val mulPMs = mutable.ArrayBuffer.empty[Double]
  val mulPTMs = mutable.ArrayBuffer.empty[Double]
  val groups = mutable.ArrayBuffer.empty[String]

  def n: Int = inner.n

  private def timed(times: mutable.ArrayBuffer[Double], prefix: String)(f: => Array[Double]): Array[Double] = {
    val g = spans.fresh(prefix)
    groups += g
    val t0 = System.nanoTime()
    val r = spans.span(g)(f)
    times += (System.nanoTime() - t0) / 1e6
    r
  }

  def mulP(x: Array[Double]): Array[Double] = timed(mulPMs, "linalg.mulP")(inner.mulP(x))
  def mulPT(x: Array[Double]): Array[Double] = timed(mulPTMs, "linalg.mulPT")(inner.mulPT(x))

  def products: Int = mulPMs.length + mulPTMs.length
  def sparkJobs: Long = spans.jobs(groups.toSeq: _*)
}

/** The traced-run adapter: the only code in the benchmark that calls into
  * layer internals. Each method re-runs one public operation step by step,
  * with a span around every layer call, and must return exactly what the
  * public call returns for the same inputs and seed.
  */
object Trace {

  /** Layer figures of one traced call; keys are the per-layer metric names. */
  type Figures = mutable.LinkedHashMap[String, Double]

  /** Graph preparation, split into its three lazily built parts. */
  def prepareGraph(spark: SparkSession, counter: JobCounter, load: => GraphData): (GraphData, Figures) = {
    val spans = new Spans(spark.sparkContext, counter)
    val g = spans.span("graph.generate") { val g = load; g.m; g }
    spans.span("graph.csr")(g.csr)
    spans.span("graph.pedges")(g.pEdges.count())
    val f: Figures = mutable.LinkedHashMap(
      "graph.generate_s" -> spans.millis("graph.generate") / 1e3,
      "graph.csr_s" -> spans.millis("graph.csr") / 1e3,
      "graph.pedges_s" -> spans.millis("graph.pedges") / 1e3)
    (g, f)
  }

  /** Nodes that received at least this share of a call's walk pairs: the
    * D̂ entries worth comparing with the exact D. A node with a handful of
    * pairs has a D̂ error near 1 by design, and little weight in the answer.
    */
  val BusyShare = 0.01

  private def busy(tasks: Seq[(Int, Long)]): Array[Int] = {
    val total = tasks.map(_._2).sum.toDouble
    tasks.collect { case (k, r) if r >= BusyShare * total => k }.toArray
  }

  /** A traced ExactSim query: its result, its layer figures, and the D̂ it
    * used with its [[busy]] nodes (for the D̂ error figure).
    */
  final case class TracedQuery(result: ExactSimResult, figures: Figures, dhat: Array[Double],
                               busy: Array[Int])

  /** [[ExactSim.singleSource]] with the default engine, layer by layer. */
  def exactSim(spark: SparkSession, counter: JobCounter, graph: GraphData, source: Int,
               conf: ExactSimConf): TracedQuery = {
    val spans = new Spans(spark.sparkContext, counter)
    val eng = new TracedEngine(graph, spans)
    val t0 = System.nanoTime()

    val fwd = spans.span("fwd")(Linearized.forward(eng, source, conf.c, conf.iterations, conf.truncationThreshold))
    val fwdProducts = eng.products

    val tasks = spans.span("alloc")(ExactSim.allocate(fwd.pi, conf.totalSamples(graph.n), conf.piSquared))

    // DiagEstimator.localExploit, with its two phases timed apart.
    val c = conf.c
    val csr = graph.csr
    val bc = spans.span("diag")(spark.sparkContext.broadcast(csr))
    val (triv, work) = tasks.partition { case (k, _) => DiagEstimator.trivial(csr, k, c).isDefined }
    val maxLevel = 30 // localExploit's default
    val detRows = spans.span("diag.phaseA") {
      if (work.isEmpty) Array.empty[(Int, Long, Double, Int, Long)]
      else {
        import spark.implicits._
        val parts = math.min(512, math.max(spark.sparkContext.defaultParallelism, work.size / 64 + 1))
        spark.createDataset(work).repartition(parts).mapPartitions { it =>
          val g = bc.value
          it.map { case (k, rk) =>
            val d = DiagEstimator.deterministicPhase(g, k, rk, c, maxLevel)
            (k, rk, d.zSum, d.level, d.edges)
          }
        }.collect()
      }
    }
    val tailTasks = detRows.map { case (k, rk, _, level, _) => (k, rk, level) }.toSeq
    val tails = spans.span("diag.phaseB") {
      if (work.isEmpty) Map.empty[Int, Walks.MeetCount]
      else Walks.pairTailMeetCounts(spark, bc, tailTasks, c, conf.seed)
    }
    val dhat = spans.span("diag") {
      val trivMap = triv.map { case (k, _) => k -> DiagEstimator.trivial(csr, k, c).get }.toMap
      val est = detRows.map { case (k, _, zSum, level, _) =>
        val tail = tails.get(k) match {
          case Some(mc) if mc.pairs > 0 => math.pow(c, level) * mc.meets.toDouble / mc.pairs
          case _ => 0.0
        }
        k -> (1.0 - zSum - tail)
      }.toMap
      val diag = trivMap ++ est
      Array.tabulate(graph.n)(k => diag.getOrElse(k, DiagEstimator.trivial(csr, k, c).getOrElse(1.0 - c)))
    }

    val scores = spans.span("bwd")(Linearized.backward(eng, fwd, dhat, c))
    scores(source) = 1.0
    bc.destroy()
    val wallMs = (System.nanoTime() - t0) / 1e6

    val walkPairs = work.map(_._2).sum
    val edges = detRows.map(_._5).sum
    val sqrtC = math.sqrt(c)
    val capped = detRows.count { case (_, rk, _, level, _) =>
      (2.0 * rk / sqrtC).toLong > DiagEstimator.MaxEdgesPerNode && level < maxLevel
    }
    val planned = tasks.map(_._2).sum
    val hot = if (tasks.isEmpty) (source, 0L) else tasks.maxBy(_._2)
    val diagMs = spans.millis("diag") + spans.millis("diag.phaseA") + spans.millis("diag.phaseB")
    val phaseBMs = spans.millis("diag.phaseB")
    val sourceLevel = detRows.collectFirst { case (k, _, _, level, _) if k == source => level.toDouble }
      .getOrElse(0.0)
    val diagJobs = spans.jobs("diag", "diag.phaseA", "diag.phaseB")

    val res = ExactSimResult(scores, conf, walkPairs, edges, fwd.hopBytes, fwd.denseBytes, fwd.piNormSq,
      wallMs.toLong)
    val f: Figures = mutable.LinkedHashMap(
      "linalg.products_per_query" -> eng.products.toDouble,
      "linalg.spark_jobs_per_query" -> eng.sparkJobs.toDouble,
      "fwd.ms" -> spans.millis("fwd"),
      "fwd.iterations" -> fwdProducts.toDouble,
      "fwd.hop_nnz" -> fwd.hops.map(_.nnz.toLong).sum.toDouble,
      "fwd.hop_bytes" -> fwd.hopBytes.toDouble,
      "fwd.pi_support" -> fwd.pi.count(_ > 0.0).toDouble,
      "bwd.ms" -> spans.millis("bwd"),
      "alloc.ms" -> spans.millis("alloc"),
      "alloc.planned_pairs" -> planned.toDouble,
      "alloc.hot_share" -> (if (planned > 0) hot._2.toDouble / planned else 0.0),
      "alloc.hot_is_source" -> (if (hot._1 == source) 1.0 else 0.0),
      "diag.ms" -> diagMs,
      "diag.phaseA_ms" -> spans.millis("diag.phaseA"),
      "diag.phaseB_ms" -> phaseBMs,
      "diag.walk_pairs" -> walkPairs.toDouble,
      "diag.edges_explored" -> edges.toDouble,
      "diag.capped_nodes" -> capped.toDouble,
      "diag.source_level" -> sourceLevel,
      "diag.spark_jobs" -> diagJobs.toDouble,
      "diag.pairs_per_s" -> (if (diagMs > 0) walkPairs / (diagMs / 1e3) else 0.0),
      "walks.pairs" -> walkPairs.toDouble,
      "walks.pairs_per_s" -> (if (phaseBMs > 0) walkPairs / (phaseBMs / 1e3) else 0.0),
      "trace.coverage" -> (spans.millis("fwd") + spans.millis("alloc") + diagMs + spans.millis("bwd")) / wallMs,
    )
    f ++= products(eng)
    TracedQuery(res, f, dhat, busy(work))
  }

  /** [[PrSim.buildIndex]] with the default engine, layer by layer. */
  def prSimIndex(spark: SparkSession, counter: JobCounter, graph: GraphData, c: Double, eps: Double, alpha: Double,
                 seed: Long): (PrSim.Index, Figures, Array[Int]) = {
    val spans = new Spans(spark.sparkContext, counter)
    val eng = new TracedEngine(graph, spans)
    val t0 = System.nanoTime()
    val n = graph.n
    val iters = Linearized.iterationsFor(c, eps)
    val pr = spans.span("prsim.pagerank")(PrSim.globalPageRank(graph, c, iters, Some(eng)))
    val (normSq, tasks) = spans.span("alloc") {
      var normSq = 0.0
      pr.foreach(p => normSq += p * p)
      val rBase = alpha * math.log(n.max(2)) / (eps * eps)
      (normSq, (0 until n).collect {
        case k if pr(k) > 0.0 => k -> math.ceil(n * rBase * pr(k) * pr(k)).toLong.max(1L)
      })
    }
    val res = spans.span("prsim.walks") {
      val bc = spark.sparkContext.broadcast(graph.csr)
      val r = DiagEstimator.basic(spark, bc, tasks.toIndexedSeq, c, seed)
      bc.destroy()
      r
    }
    val dhat = Array.tabulate(n)(k => res.dhat.getOrElse(k, 1.0 - c))
    val wallMs = (System.nanoTime() - t0) / 1e6
    val index = PrSim.Index(dhat, res.walkPairs, normSq, wallMs.toLong)

    val walksMs = spans.millis("prsim.walks")
    val planned = tasks.map(_._2).sum
    val f: Figures = mutable.LinkedHashMap(
      "prsim.pagerank_ms" -> spans.millis("prsim.pagerank"),
      "prsim.walks_ms" -> walksMs,
      "alloc.ms" -> spans.millis("alloc"),
      "alloc.planned_pairs" -> planned.toDouble,
      "alloc.hot_share" -> (if (planned > 0) tasks.map(_._2).max.toDouble / planned else 0.0),
      "alloc.hot_is_source" -> 0.0,
      "diag.ms" -> walksMs,
      "diag.phaseB_ms" -> walksMs,
      "diag.walk_pairs" -> res.walkPairs.toDouble,
      "diag.spark_jobs" -> spans.jobs("prsim.walks").toDouble,
      "diag.pairs_per_s" -> (if (walksMs > 0) res.walkPairs / (walksMs / 1e3) else 0.0),
      "walks.pairs" -> res.walkPairs.toDouble,
      "walks.pairs_per_s" -> (if (walksMs > 0) res.walkPairs / (walksMs / 1e3) else 0.0),
    )
    f ++= products(eng)
    (index, f, busy(tasks))
  }

  /** [[PrSim.singleSource]] with the default engine, layer by layer. */
  def prSimQuery(spark: SparkSession, counter: JobCounter, graph: GraphData, source: Int, index: PrSim.Index, c: Double,
                 eps: Double): (PrSim.Result, Figures) = {
    val spans = new Spans(spark.sparkContext, counter)
    val eng = new TracedEngine(graph, spans)
    val t0 = System.nanoTime()
    val fwd = spans.span("fwd")(Linearized.forward(eng, source, c, Linearized.iterationsFor(c, eps)))
    val fwdProducts = eng.products
    val scores = spans.span("bwd")(Linearized.backward(eng, fwd, index.dhat, c))
    scores(source) = 1.0
    val wallMs = (System.nanoTime() - t0) / 1e6
    val f: Figures = mutable.LinkedHashMap(
      "linalg.products_per_query" -> eng.products.toDouble,
      "linalg.spark_jobs_per_query" -> eng.sparkJobs.toDouble,
      "fwd.ms" -> spans.millis("fwd"),
      "fwd.iterations" -> fwdProducts.toDouble,
      "fwd.hop_nnz" -> fwd.hops.map(_.nnz.toLong).sum.toDouble,
      "fwd.hop_bytes" -> fwd.hopBytes.toDouble,
      "fwd.pi_support" -> fwd.pi.count(_ > 0.0).toDouble,
      "bwd.ms" -> spans.millis("bwd"),
      "trace.coverage" -> (spans.millis("fwd") + spans.millis("bwd")) / wallMs,
    )
    f ++= products(eng)
    (PrSim.Result(scores, wallMs.toLong), f)
  }

  private def products(eng: TracedEngine): Figures = mutable.LinkedHashMap(
    "linalg.mulP_ms.p50" -> Stats.median(eng.mulPMs.toSeq),
    "linalg.mulPT_ms.p50" -> Stats.median(eng.mulPTMs.toSeq),
  )
}
