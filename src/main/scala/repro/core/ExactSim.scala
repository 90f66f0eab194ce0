package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.GraphData

/** Configuration for [[ExactSim]].
  *
  * @param c           SimRank decay factor (paper experiments use 0.6)
  * @param eps         additive error target ε
  * @param alpha       multiplier in the sample budget `R = ⌈α·ln n / ε²⌉`.
  *                    The paper's Theorem-1 constant is `6/(1−√c)⁴`
  *                    ([[ExactSimConf.paperAlpha]]); benches use a smaller α
  *                    to fit the session's wall-clock (documented substitution
  *                    — the estimator stays unbiased and errors are measured).
  * @param sparse      sparse Linearization (§3.2): truncate hop vectors at
  *                    `(1−√c)²·ε/2` and halve ε elsewhere, per Lemma 2
  * @param piSquared   allocate samples ∝ π_i(k)²/‖π_i‖² and scale R by ‖π_i‖²
  *                    (Lemma 3) instead of ∝ π_i(k)
  * @param localExploit use Algorithm 3 instead of Algorithm 2 for D̂
  * @param seed        RNG seed for the walk engine
  */
final case class ExactSimConf(
    c: Double = 0.6,
    eps: Double = 1e-4,
    alpha: Double = ExactSimConf.paperAlpha(0.6),
    sparse: Boolean = true,
    piSquared: Boolean = true,
    localExploit: Boolean = true,
    seed: Long = 42,
) {
  require(c > 0 && c < 1, "decay factor must be in (0,1)")
  require(eps > 0, "eps must be positive")

  def sqrtC: Double = math.sqrt(c)

  /** ε used for L / R / truncation — halved when sparse Linearization is on,
    * so the extra ε/2 truncation error keeps the total within ε (Lemma 2).
    */
  def epsEff: Double = if (sparse) eps / 2 else eps

  def iterations: Int = Linearized.iterationsFor(c, epsEff)

  def truncationThreshold: Double =
    if (sparse) (1 - sqrtC) * (1 - sqrtC) * epsEff else 0.0

  /** Total pair-walk budget before the ‖π_i‖² reduction. A budget of 2⁶³ or
    * more does not fit a Long and is rejected rather than saturated.
    */
  def totalSamples(n: Int): Long = {
    val r = math.ceil(alpha * math.log(n.max(2)) / (epsEff * epsEff))
    require(r < Long.MaxValue.toDouble,
      f"sample budget $r%.3g for eps=$eps%s, alpha=$alpha%s, n=$n does not fit a Long (limit 2^63)")
    r.toLong.max(1L)
  }
}

object ExactSimConf {
  /** Theorem 1's Bernstein constant `6/(1−√c)⁴`. */
  def paperAlpha(c: Double): Double = { val t = 1 - math.sqrt(c); 6.0 / (t * t * t * t) }

  /** Basic ExactSim of §3.1 — all optimizations off. */
  def basic(eps: Double, alpha: Double, seed: Long = 42): ExactSimConf =
    ExactSimConf(eps = eps, alpha = alpha, sparse = false, piSquared = false,
      localExploit = false, seed = seed)

  /** Optimized ExactSim — the configuration the paper evaluates by default. */
  def optimized(eps: Double, alpha: Double, seed: Long = 42): ExactSimConf =
    ExactSimConf(eps = eps, alpha = alpha, seed = seed)
}

/** Result of a single-source ExactSim query, with the accounting the benches
  * report: sample counts, deterministic-exploration volume and the memory
  * footprint of the stored hop vectors (Table 3).
  */
final case class ExactSimResult(
    scores: Array[Double],
    conf: ExactSimConf,
    walkPairs: Long,
    edgesExplored: Long,
    hopVectorBytes: Long,
    denseHopVectorBytes: Long,
    piNormSq: Double,
    millis: Long,
)

/** ExactSim (Algorithm 1 + §3.2 optimizations): probabilistic exact
  * single-source SimRank.
  *
  * Pipeline per query:
  *  1. forward pass — ℓ-hop PPR vectors `π_i^ℓ` by L products with `P` on
  *     the driver-side CSR, truncated if sparse Linearization is on;
  *  2. sample allocation — `R(k) = ⌈R·π_i(k)⌉` or `⌈R·π_i(k)²/‖π_i‖²⌉`;
  *  3. D̂ estimation — Algorithm 2 or Algorithm 3 over distributed √c-walks;
  *  4. backward pass — fold `D̂·π_i^ℓ` through `√c·Pᵀ` (eq. 8), L products
  *     with `Pᵀ` on the same CSR.
  */
object ExactSim {

  def singleSource(graph: GraphData, source: Int, conf: ExactSimConf): ExactSimResult = {
    graph.requireSource(source)
    val spark = graph.spark
    val t0 = System.nanoTime()
    val fwd = Linearized.forward(graph.csr, source, conf.c, conf.iterations, conf.truncationThreshold)

    val r = conf.totalSamples(graph.n)
    val tasks = allocate(fwd.pi, r, conf.piSquared)

    val bc = spark.sparkContext.broadcast(graph.csr)
    val diag =
      if (conf.localExploit) DiagEstimator.localExploit(spark, bc, tasks, conf.c, conf.seed)
      else DiagEstimator.basic(spark, bc, tasks, conf.c, conf.seed)

    val dhat = new Array[Double](graph.n)
    var k = 0
    while (k < graph.n) {
      dhat(k) = diag.dhat.getOrElse(k,
        DiagEstimator.trivial(graph.csr, k, conf.c).getOrElse(1.0 - conf.c))
      k += 1
    }

    val scores = Linearized.backward(graph.csr, fwd, dhat, conf.c)
    scores(source) = 1.0 // S(i,i) = 1 by definition
    bc.destroy()
    ExactSimResult(scores, conf, diag.walkPairs, diag.edgesExplored,
      fwd.hopBytes, fwd.denseBytes, fwd.piNormSq,
      (System.nanoTime() - t0) / 1000000)
  }

  /** Sample allocation over the support of π_i (Algorithm 1 line 8 / Lemma 3).
    * Every node in the support receives at least one pair (the ⌈·⌉).
    */
  def allocate(pi: Array[Double], r: Long, piSquared: Boolean): Seq[(Int, Long)] = {
    if (piSquared) {
      // Lemma 3: scale R down by ‖π_i‖² and distribute ∝ π_i(k)²/‖π_i‖² —
      // combined, node k receives ⌈R·π_i(k)²⌉ pairs.
      pi.indices.collect {
        case k if pi(k) > 0.0 => k -> math.ceil(r * pi(k) * pi(k)).toLong.max(1L)
      }
    } else {
      pi.indices.collect {
        case k if pi(k) > 0.0 => k -> math.ceil(r * pi(k)).toLong.max(1L)
      }
    }
  }

  /** Alias of [[singleSource]]. Kept only because
    * `perfbench/src/main/scala/repro/perfbench/Bench.scala` calls it by name;
    * it goes with the next benchmark change.
    */
  def singleSourceLocal(graph: GraphData, source: Int, conf: ExactSimConf): ExactSimResult =
    singleSource(graph, source, conf)
}
