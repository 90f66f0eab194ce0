package repro.baselines

import repro.core.{DiagEstimator, Linearized}
import repro.graph.GraphData
import repro.linalg.LinEngine

/** PRSim-lite (after Wei et al., SIGMOD'19).
  *
  * Faithful-in-shape substitution (see DESIGN.md §3.4): the index estimates
  * the diagonal `D̂` with pair-walk samples allocated by *global* PageRank —
  * `R(k) = ⌈n·R_base·π̄(k)²⌉` with `R_base = α·ln n/ε²` — so the total
  * preprocessing cost is `O(n·‖π̄‖²·log n/ε²)`, PRSim's average complexity:
  * sublinear-in-n behaviour on power-law graphs, but still n-scaled, which is
  * exactly why it cannot reach ε_min on large graphs (paper §2.2). Queries
  * run the linearized backward iteration in `O(m·log(1/ε))`.
  *
  * Unlike ExactSim the allocation is source-independent, so sources whose PPR
  * differs from global PageRank see larger errors — the "bad source" effect
  * the paper describes.
  */
object PrSim {

  final case class Index(dhat: Array[Double], walkPairs: Long, pageRankNormSq: Double,
                         prepMillis: Long) {
    def bytes: Long = dhat.length.toLong * 8
  }

  final case class Result(scores: Array[Double], millis: Long)

  /** Global PageRank proxy: π̄ = (1−√c)·Σ_ℓ (√c P)^ℓ · (1/n)·1 — the average
    * of all PPR vectors, computed with the same CSR mat-vec as the queries.
    * `engine` defaults to `graph.csr`; it is a parameter only because
    * `perfbench/src/main/scala/repro/perfbench/Trace.scala` passes a timing
    * wrapper, and goes with the next benchmark change.
    */
  def globalPageRank(graph: GraphData, c: Double, iters: Int,
                     engine: Option[LinEngine] = None): Array[Double] = {
    val eng = engine.getOrElse(graph.csr)
    val n = graph.n
    val sqrtC = math.sqrt(c)
    var cur = Array.fill(n)((1.0 - sqrtC) / n)
    val pi = cur.clone()
    var ell = 1
    while (ell <= iters) {
      cur = eng.mulP(cur)
      var k = 0
      while (k < n) { cur(k) *= sqrtC; pi(k) += cur(k); k += 1 }
      ell += 1
    }
    pi
  }

  /** The index's sampling tasks `(k, R(k))` over the support of `pr`, with
    * `R(k) = ⌈n·R_base·pr(k)²⌉ ≥ 1`. The index build samples exactly these;
    * budget checks sum them without running any walks.
    */
  def pairTasks(n: Int, pr: Array[Double], eps: Double, alpha: Double): IndexedSeq[(Int, Long)] = {
    val rBase = alpha * math.log(n.max(2)) / (eps * eps)
    (0 until n).collect {
      case k if pr(k) > 0.0 => k -> math.ceil(n * rBase * pr(k) * pr(k)).toLong.max(1L)
    }
  }

  def buildIndex(graph: GraphData, c: Double, eps: Double, alpha: Double,
                 seed: Long = 42, precomputedPr: Option[Array[Double]] = None): Index = {
    val t0 = System.nanoTime()
    val spark = graph.spark
    val n = graph.n
    val iters = Linearized.iterationsFor(c, eps)
    val pr = precomputedPr.getOrElse(globalPageRank(graph, c, iters))
    var normSq = 0.0
    pr.foreach(p => normSq += p * p)
    val bc = spark.sparkContext.broadcast(graph.csr)
    val res = DiagEstimator.basic(spark, bc, pairTasks(n, pr, eps, alpha), c, seed)
    val dhat = Array.tabulate(n)(k => res.dhat.getOrElse(k, 1.0 - c))
    bc.destroy()
    Index(dhat, res.walkPairs, normSq, (System.nanoTime() - t0) / 1000000)
  }

  def singleSource(graph: GraphData, source: Int, index: Index, c: Double, eps: Double): Result = {
    graph.requireSource(source)
    val t0 = System.nanoTime()
    val fwd = Linearized.forward(graph.csr, source, c, Linearized.iterationsFor(c, eps))
    val scores = Linearized.backward(graph.csr, fwd, index.dhat, c)
    scores(source) = 1.0
    Result(scores, (System.nanoTime() - t0) / 1000000)
  }
}
