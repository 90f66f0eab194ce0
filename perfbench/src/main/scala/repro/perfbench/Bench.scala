package repro.perfbench

import java.io.File
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Files, StandardCopyOption, StandardOpenOption}
import java.util.SplittableRandom

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import repro.baselines.PrSim
import repro.core.{ExactSim, ExactSimConf, PowerMethod}
import repro.eval.{Datasets, Metrics}
import repro.graph.GraphData

/** One benchmark run: a workload, from a seed, for a number of seconds.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *         --cache <dir> --cores <n>`
  *
  * The timed run (`--trace 0`) calls only the public API: `Datasets`,
  * `ExactSim.singleSource`, `ExactSimConf.optimized`, `PrSim.buildIndex` /
  * `singleSource`, `PowerMethod` and `Metrics`. The traced run (`--trace 1`)
  * goes through [[Trace]], the one place that reaches into layer internals.
  * Either way the last line on stdout is the result object; the exit code is
  * 0 only if every answer passed its check.
  */
object Bench {

  val C = 0.6
  val Alpha = 1.0
  /** Queries alternate untraced/traced at least this often in a traced run. */
  val MinTracedPairs = 2
  /** Power Method iterations for ground truth (error ≤ c^40 ≈ 1.3e-9). */
  val PowerIters = 40
  /** Sources a workload draws from; fixed per graph so references can be cached. */
  val PoolSize = 24
  val TopK = 100

  sealed trait Truth
  /** Dense Power Method on the whole graph. */
  case object PowerTruth extends Truth
  /** ExactSim at a finer ε with a seed disjoint from every query seed (paper §4.2). */
  final case class ReferenceTruth(eps: Double) extends Truth

  /** @param minInDeg  sources are drawn from nodes with at least this in-degree
    * @param tolerance a query fails if its MaxError against the truth exceeds this
    * @param warmups   untimed queries in the set-up. In a fresh JVM the query
    *                  time falls by up to a third over the first queries, as
    *                  the JIT compiles Spark's planner and the walk kernels.
    *                  The PRSim-lite index build already runs the mat-vec and
    *                  walk code, so one warm-up query suffices there. On
    *                  ExactSim the first query is also the first to run D̂'s
    *                  phase A, so it gets two.
    */
  final case class Workload(name: String, dataset: String, prsim: Boolean, eps: Double,
                            minInDeg: Int, truth: Truth, tolerance: Double, warmups: Int)

  val Workloads: Seq[Workload] = Seq(
    Workload("coarse-db", "DB-lite", prsim = false, eps = 1e-2, minInDeg = 1,
      truth = ReferenceTruth(1e-3), tolerance = 1e-2 + 1e-3, warmups = 2),
    Workload("exact-gq", "GQ-lite", prsim = false, eps = 1e-3, minInDeg = 2,
      truth = PowerTruth, tolerance = 1e-3, warmups = 2),
    Workload("prsim-wv", "WV-lite", prsim = true, eps = 3e-3, minInDeg = 1,
      truth = PowerTruth, tolerance = 3e-3, warmups = 1),
  )

  /** End-to-end metrics (`--trace 0`) and per-layer metrics (`--trace 1`). */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "query_s.p50" -> "s", "queries_per_s" -> "1/s")

  val PerLayer: Seq[(String, String)] = Seq(
    "graph.generate_s" -> "s", "graph.csr_s" -> "s", "graph.pedges_s" -> "s",
    "linalg.mulP_ms.p50" -> "ms", "linalg.mulPT_ms.p50" -> "ms",
    "linalg.products_per_query" -> "count", "linalg.spark_jobs_per_query" -> "count",
    "fwd.ms" -> "ms", "fwd.iterations" -> "count", "fwd.hop_nnz" -> "count",
    "fwd.hop_bytes" -> "bytes", "fwd.pi_support" -> "count", "bwd.ms" -> "ms",
    "alloc.ms" -> "ms", "alloc.planned_pairs" -> "count", "alloc.hot_share" -> "ratio",
    "alloc.hot_is_source" -> "bool",
    "diag.ms" -> "ms", "diag.phaseA_ms" -> "ms", "diag.phaseB_ms" -> "ms",
    "diag.walk_pairs" -> "count", "diag.edges_explored" -> "count", "diag.capped_nodes" -> "count",
    "diag.source_level" -> "count", "diag.spark_jobs" -> "count", "diag.pairs_per_s" -> "1/s",
    "diag.abs_err_max" -> "abs",
    "prsim.pagerank_ms" -> "ms", "prsim.walks_ms" -> "ms", "walks.pairs" -> "count",
    "walks.pairs_per_s" -> "1/s",
    "eval.topk_ms" -> "ms", "eval.max_error" -> "abs", "eval.precision_at_100" -> "ratio",
    "trace.coverage" -> "ratio", "trace.overhead" -> "ratio", "trace.scores_match" -> "bool",
  )

  /** Per-layer figures a traced run reports for its first query, whose source
    * and seed depend only on `--seed`, so its counts repeat exactly. Every
    * other figure is the median over the traced queries (`eval.max_error`:
    * their maximum).
    */
  val FirstQuery: Set[String] = Set("diag.abs_err_max",
    "linalg.products_per_query", "linalg.spark_jobs_per_query", "fwd.iterations", "fwd.hop_nnz",
    "fwd.hop_bytes", "fwd.pi_support", "alloc.planned_pairs", "alloc.hot_share", "alloc.hot_is_source",
    "diag.walk_pairs", "diag.edges_explored", "diag.capped_nodes", "diag.source_level",
    "diag.spark_jobs", "walks.pairs")

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        cache: File, cores: Int)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val sessionStart = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[${args.cores}]")
      .appName(s"perfbench-${args.workload.name}")
      .config("spark.sql.shuffle.partitions", args.cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(args.cache, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(args.cache, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val ok =
      try new Run(spark, args, sessionStart).run()
      finally spark.stop()
    sys.exit(if (ok) 0 else 1)
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val name = need("workload")
    val w = Workloads.find(_.name == name)
      .getOrElse(sys.error(s"unknown workload $name; known: ${Workloads.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLong
    require(seed >= 0, "seed must be non-negative")
    Args(w, seed, need("seconds").toDouble, need("trace") == "1", new File(need("cache")),
      need("cores").toInt)
  }

  /** Sources of one run. A fixed pool is drawn from the graph; the seed picks
    * the warm-up sources and an order for the rest, the timed sources.
    */
  final case class Plan(warmups: IndexedSeq[Int], timed: IndexedSeq[Int])

  def plan(graph: GraphData, w: Workload, seed: Long): Plan = {
    val csr = graph.csr
    val eligible = (0 until graph.n).filter(v => csr.inDeg(v) >= w.minInDeg)
    val pool = shuffle(eligible, new SplittableRandom(0x5eed)).take(PoolSize)
    val order = shuffle(pool, new SplittableRandom(seed * 0x9E3779B97F4A7C15L + 1))
    Plan(order.take(w.warmups), order.drop(w.warmups))
  }

  private def shuffle(xs: IndexedSeq[Int], rng: SplittableRandom): IndexedSeq[Int] = {
    val a = xs.toArray
    var i = a.length - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a.toIndexedSeq
  }

  /** Walk seed of the `i`-th query of a run; disjoint from reference seeds. */
  def querySeed(seed: Long, i: Int): Long = 1000000L * (seed + 1) + i

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private final class Run(spark: SparkSession, args: Args, sessionStart: Long) {
    private val w = args.workload
    private val spec = Datasets.byKey(w.dataset)
    private val indexSeed = querySeed(args.seed, 999999)

    private def query(graph: GraphData, index: PrSim.Index, src: Int, qseed: Long): Array[Double] =
      if (w.prsim) PrSim.singleSource(graph, src, index, C, w.eps).scores
      else ExactSim.singleSource(graph, src, ExactSimConf.optimized(w.eps, Alpha, qseed)).scores

    /** The set-up's untimed queries, on sources outside the timed set: they
      * pay every lazy per-graph cost and warm the JIT.
      */
    private def warmup(graph: GraphData, index: PrSim.Index, p: Plan): Unit =
      p.warmups.zipWithIndex.foreach { case (src, k) => query(graph, index, src, querySeed(args.seed, -1 - k)) }

    private def buildIndex(graph: GraphData): PrSim.Index =
      if (w.prsim) PrSim.buildIndex(graph, C, w.eps, Alpha, indexSeed) else null

    def run(): Boolean = if (args.trace) traced() else timed()

    /** A query fails its check if it threw, or if its MaxError is not a
      * finite number within the workload's tolerance (NaN scores fail too).
      */
    private def failedCheck(maxError: Option[Double]): Boolean = maxError.forall(e => !(e <= w.tolerance))

    /** One query's outcome; `scores` is None if it threw. */
    final case class Answer(src: Int, scores: Option[Array[Double]], secs: Double)

    private def ask(graph: GraphData, index: PrSim.Index, src: Int, qseed: Long): Answer = {
      val t0 = System.nanoTime()
      val s =
        try Some(query(graph, index, src, qseed))
        catch { case NonFatal(e) => Console.err.println(s"query $src failed: $e"); None }
      Answer(src, s, seconds(t0))
    }

    private def timed(): Boolean = {
      // Set-up: SparkSession start to query-ready (the plan's source draw is
      // not counted).
      val graph = spec.generate(spark)
      graph.m
      graph.csr
      val loaded = seconds(sessionStart)
      val p = plan(graph, w, args.seed)
      val t1 = System.nanoTime()
      val index = buildIndex(graph)
      warmup(graph, index, p)
      val setup = loaded + seconds(t1)

      val answers = mutable.ArrayBuffer.empty[Answer]
      val start = System.nanoTime()
      val deadline = start + (args.seconds * 1e9).toLong
      while (System.nanoTime() < deadline) {
        val i = answers.length
        answers += ask(graph, index, p.timed(i % p.timed.length), querySeed(args.seed, i))
      }
      val phase = seconds(start)

      val truth = new GroundTruth(graph, w, args.cache)
      val errors = answers.map(a => a.scores.map(s => Metrics.maxError(s, truth.column(a.src))))
      val failed = errors.count(failedCheck)
      val completed = answers.count(_.scores.isDefined)
      detail(Seq(
        "setup_s" -> Seq(setup), "query_s" -> answers.map(_.secs).toSeq),
        "sources" -> answers.map(_.src).mkString("[", ",", "]"),
        "max_error" -> errors.map(_.getOrElse(Double.NaN)).map(num).mkString("[", ",", "]"))
      result(answers.length, failed, Seq(
        "setup_s" -> setup,
        "query_s.p50" -> Stats.median(answers.map(_.secs).toSeq),
        "queries_per_s" -> completed / phase))
    }

    private def traced(): Boolean = {
      val counter = new JobCounter(spark.sparkContext)
      val (graph, graphFigures) = Trace.prepareGraph(spark, counter, spec.generate(spark))
      val p = plan(graph, w, args.seed)
      val truth = new GroundTruth(graph, w, args.cache)
      // Loaded here, so no traced query's time includes ground-truth work.
      val trueDiag = truth.diag
      val figures = mutable.LinkedHashMap.empty[String, Double] ++= graphFigures
      var matches = true

      val index = buildIndex(graph)
      if (w.prsim) {
        val (tIndex, f, tBusy) = Trace.prSimIndex(spark, counter, graph, C, w.eps, Alpha, indexSeed)
        matches &&= java.util.Arrays.equals(tIndex.dhat, index.dhat)
        figures ++= f
        figures("diag.abs_err_max") = maxAbsDiff(index.dhat, trueDiag, tBusy)
      }
      warmup(graph, index, p)

      val plain = mutable.ArrayBuffer.empty[Answer]
      val tracedAnswers = mutable.ArrayBuffer.empty[Answer]
      val perQuery = mutable.ArrayBuffer.empty[mutable.Map[String, Double]]
      val deadline = System.nanoTime() + (args.seconds * 1e9).toLong
      while (plain.length < MinTracedPairs || System.nanoTime() < deadline) {
        val i = plain.length
        val src = p.timed(i % p.timed.length)
        val qseed = querySeed(args.seed, i)
        // Alternate which of the pair runs first, so JIT warm-up during the
        // run does not bias trace.overhead.
        if (i % 2 == 0) plain += ask(graph, index, src, qseed)
        val t0 = System.nanoTime()
        val (scores, f) =
          if (w.prsim) {
            val (r, f) = Trace.prSimQuery(spark, counter, graph, src, index, C, w.eps)
            (r.scores, f)
          } else {
            val q = Trace.exactSim(spark, counter, graph, src, ExactSimConf.optimized(w.eps, Alpha, qseed))
            if (i == 0 && trueDiag != null) q.figures("diag.abs_err_max") = maxAbsDiff(q.dhat, trueDiag, q.busy)
            (q.result.scores, q.figures)
          }
        tracedAnswers += Answer(src, Some(scores), seconds(t0))
        if (i % 2 == 1) plain += ask(graph, index, src, qseed)
        matches &&= plain.last.scores.exists(s => java.util.Arrays.equals(s, scores))
        val topT0 = System.nanoTime()
        Metrics.topK(scores, TopK, src)
        f("eval.topk_ms") = (System.nanoTime() - topT0) / 1e6
        f("eval.max_error") = Metrics.maxError(scores, truth.column(src))
        f("eval.precision_at_100") = Metrics.precisionAtK(scores, truth.column(src), TopK, src)
        perQuery += f
      }

      for (name <- perQuery.head.keys) {
        val values = perQuery.map(_.getOrElse(name, 0.0)).toSeq
        figures(name) =
          if (FirstQuery(name)) values.head
          else if (name == "eval.max_error") values.max
          else Stats.median(values)
      }
      val plainMedian = Stats.median(plain.map(_.secs).toSeq)
      figures("trace.overhead") = Stats.median(tracedAnswers.map(_.secs).toSeq) / plainMedian - 1
      figures("trace.scores_match") = if (matches) 1.0 else 0.0

      val all = plain ++ tracedAnswers
      val errors = all.map(a => a.scores.map(s => Metrics.maxError(s, truth.column(a.src))))
      val failed = errors.count(failedCheck)
      detail(Seq("query_s" -> plain.map(_.secs).toSeq, "query_s.traced" -> tracedAnswers.map(_.secs).toSeq),
        "sources" -> plain.map(_.src).mkString("[", ",", "]"),
        "max_error" -> errors.map(_.getOrElse(Double.NaN)).map(num).mkString("[", ",", "]"))
      if (!matches) Console.err.println("traced run did not reproduce the untraced scores")
      result(all.length, failed + (if (matches) 0 else 1), PerLayer.map { case (n, _) => n -> figures.getOrElse(n, 0.0) })
    }

    /** Prints sample counts and run facts, one JSON object on one line. */
    private def detail(samples: Seq[(String, Seq[Double])], extra: (String, String)*): Unit = {
      val sc = spark.sparkContext
      val fields = Seq(
        "workload" -> s""""${w.name}"""", "seed" -> args.seed.toString,
        "spark_master" -> s""""${sc.master}"""", "spark_parallelism" -> sc.defaultParallelism.toString,
        "heap_max_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
        "samples" -> samples.map { case (k, v) => s""""$k": ${v.length}""" }.mkString("{", ", ", "}"),
        "timings" -> samples.map { case (k, v) => s""""$k": ${v.map(num).mkString("[", ",", "]")}""" }
          .mkString("{", ", ", "}"),
      ) ++ extra
      println(fields.map { case (k, v) => s""""$k": $v""" }.mkString("{\"detail\": {", ", ", "}}"))
    }

    private def result(attempted: Int, failed: Int, metrics: Seq[(String, Double)]): Boolean = {
      val units = (EndToEnd ++ PerLayer).toMap
      val correct = failed == 0
      val ms = metrics.map { case (k, v) => s""""$k": {"value": ${num(v)}, "unit": "${units(k)}"}""" }
      println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": ${ms.mkString("{", ", ", "}")}}""")
      correct
    }
  }

  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  private def maxAbsDiff(a: Array[Double], b: Array[Double], at: Iterable[Int]): Double =
    at.foldLeft(0.0)((m, k) => math.max(m, math.abs(a(k) - b(k))))

  /** Ground truth of a workload, computed outside every timed region and kept
    * on disk so later runs on the same checkout reuse it. File names carry the
    * graph's n, m and a hash of its CSR arrays, so a changed graph gets fresh
    * truth.
    */
  final class GroundTruth(graph: GraphData, w: Workload, cache: File) {
    private val dir = new File(cache, "truth")
    dir.mkdirs()
    private val graphKey = {
      val csr = graph.csr
      val h = 31 * java.util.Arrays.hashCode(csr.inOff) + java.util.Arrays.hashCode(csr.inAdj)
      f"${w.dataset}-n${csr.n}-m${csr.m}-$h%08x"
    }

    /** Exact S (Power Method workloads only). */
    private lazy val s: Array[Array[Double]] = w.truth match {
      case PowerTruth =>
        val n = graph.n
        val f = new File(dir, s"power-$graphKey-$PowerIters.bin")
        val flat = load(f, n * n).getOrElse {
          val m = PowerMethod.simrank(graph.csr, C, PowerIters)
          val flat = new Array[Double](n * n)
          for (i <- 0 until n) System.arraycopy(m(i), 0, flat, i * n, n)
          store(f, flat)
          flat
        }
        Array.tabulate(n)(i => java.util.Arrays.copyOfRange(flat, i * n, (i + 1) * n))
      case _ => null
    }

    /** Exact D (Power Method workloads only, else null). */
    lazy val diag: Array[Double] = if (s == null) null else PowerMethod.exactDiag(graph.csr, s, C)

    def column(src: Int): Array[Double] = w.truth match {
      case PowerTruth => s(src) // S is symmetric: row = column
      case ReferenceTruth(eps) =>
        val f = new File(dir, s"reference-$graphKey-$eps-$src.bin")
        load(f, graph.n).getOrElse {
          val col = ExactSim.singleSourceLocal(graph, src, ExactSimConf.optimized(eps, Alpha, 7700L + src)).scores
          store(f, col)
          col
        }
    }

    private def load(f: File, len: Int): Option[Array[Double]] =
      if (!f.isFile || f.length != len * 8L) None
      else {
        val ch = FileChannel.open(f.toPath, StandardOpenOption.READ)
        try {
          val buf = ByteBuffer.allocate(len * 8).order(ByteOrder.LITTLE_ENDIAN)
          while (buf.hasRemaining && ch.read(buf) >= 0) {}
          buf.flip()
          val out = new Array[Double](len)
          buf.asDoubleBuffer().get(out)
          Some(out)
        } finally ch.close()
      }

    private def store(f: File, xs: Array[Double]): Unit = {
      val tmp = new File(dir, f.getName + ".tmp")
      val buf = ByteBuffer.allocate(xs.length * 8).order(ByteOrder.LITTLE_ENDIAN)
      buf.asDoubleBuffer().put(xs)
      val ch = FileChannel.open(tmp.toPath, StandardOpenOption.CREATE, StandardOpenOption.WRITE,
        StandardOpenOption.TRUNCATE_EXISTING)
      try { while (buf.hasRemaining) ch.write(buf) } finally ch.close()
      Files.move(tmp.toPath, f.toPath, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
    }
  }
}
