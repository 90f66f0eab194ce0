package repro.core

import java.util.SplittableRandom
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.graph.Csr

import scala.collection.mutable

/** Estimators for the diagonal correction matrix `D`.
  *
  * - [[basic]] — Algorithm 2: `R(k)` independent √c-walk pairs from `v_k`;
  *   `D̂(k,k)` = fraction of pairs that never meet.
  * - [[localExploit]] — Algorithm 3: deterministically compute the first-meet
  *   probabilities `Z_ℓ(k) = Σ_q Z_ℓ(k,q)` level by level via the Lemma-4
  *   recursion, charging every traversed edge against the budget
  *   `2R(k)/√c` (the expected step cost of plain sampling); then estimate the
  *   tail `Σ_{ℓ>ℓ(k)} Z_ℓ(k)` with walks whose first `ℓ(k)` steps are
  *   non-stopping, scaled by `c^{ℓ(k)}`.
  *
  * Both run as distributed Spark jobs over the tasks `(k, R(k))` with a
  * broadcast CSR (the paper's §3.2 parallelization), and both sample with
  * [[Walks.pairTailMeetCounts]], which chunks each node's pairs across the
  * cluster so a hub node with a huge `R(k)` cannot serialize onto one core.
  * [[localExploit]] adds a deterministic phase before it (one task per node,
  * edge-budgeted).
  */
object DiagEstimator {

  /** Per-node estimate plus accounting used by benches. */
  final case class DiagResult(dhat: Map[Int, Double], walkPairs: Long, edgesExplored: Long)

  /** Per-node deterministic budget cap (edge traversals). The paper's budget
    * is `2R(k)/√c`, which for hub nodes at ε_min can reach 10⁸⁺ sequential
    * hash-map operations in one task; the cap bounds per-node latency while
    * keeping the estimator unbiased (the sampled tail covers whatever the
    * deterministic part did not), at the cost of a little extra variance on
    * those hubs (DESIGN.md, deviations).
    */
  val MaxEdgesPerNode: Long = 2000000L

  /** Trivial exact values of Algorithm 3 lines 1–4. */
  def trivial(g: Csr, k: Int, c: Double): Option[Double] = g.inDeg(k) match {
    case 0 => Some(1.0)
    case 1 => Some(1.0 - c)
    case _ => None
  }

  /** Algorithm 2 driven by the distributed walk engine: the tail sampler with
    * prefix 0, since Algorithm 2 is Algorithm 3 with ℓ(k) = 0.
    */
  def basic(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long)],
            c: Double, seed: Long): DiagResult = {
    val g = csr.value
    val (triv, sampled) = tasks.partition { case (k, _) => trivial(g, k, c).isDefined }
    val trivMap = triv.map { case (k, _) => k -> trivial(g, k, c).get }.toMap
    val counts = Walks.pairTailMeetCounts(spark, csr, sampled.map { case (k, r) => (k, r, 0) }, c, seed)
    val est = counts.map { case (k, mc) => k -> (1.0 - mc.meets.toDouble / mc.pairs) }
    DiagResult(trivMap ++ est, sampled.map(_._2).sum, 0L)
  }

  /** Result of the deterministic phase for one node. */
  final case class Deterministic(zSum: Double, level: Int, edges: Long)

  /** Algorithm 3 applied to every task node, distributed over Spark. */
  def localExploit(spark: SparkSession, csr: Broadcast[Csr], tasks: Seq[(Int, Long)],
                   c: Double, seed: Long, maxLevel: Int = 30): DiagResult = {
    import spark.implicits._
    val g = csr.value
    if (tasks.isEmpty) return DiagResult(Map.empty, 0L, 0L)
    val (triv, work) = tasks.partition { case (k, _) => trivial(g, k, c).isDefined }
    val trivMap = triv.map { case (k, _) => k -> trivial(g, k, c).get }.toMap
    if (work.isEmpty) return DiagResult(trivMap, 0L, 0L)

    // Phase A: deterministic exploitation, one (budget-capped) task per node.
    val parts = math.min(512, math.max(spark.sparkContext.defaultParallelism, work.size / 64 + 1))
    val detRows = spark.createDataset(work).repartition(parts).mapPartitions { it =>
      val graph = csr.value
      it.map { case (k, rk) =>
        val d = deterministicPhase(graph, k, rk, c, maxLevel)
        (k, rk, d.zSum, d.level, d.edges)
      }
    }.collect()

    // Phase B: tail sampling, chunked across the cluster.
    val tailTasks = detRows.map { case (k, rk, _, level, _) => (k, rk, level) }.toSeq
    val tails = Walks.pairTailMeetCounts(spark, csr, tailTasks, c, seed)
    val est = detRows.map { case (k, rk, zSum, level, _) =>
      val tail = tails.get(k) match {
        case Some(mc) if mc.pairs > 0 => math.pow(c, level) * mc.meets.toDouble / mc.pairs
        case _ => 0.0
      }
      k -> (1.0 - zSum - tail)
    }.toMap
    DiagResult(trivMap ++ est, work.map(_._2).sum, detRows.map(_._5).sum)
  }

  /** Thrown inside the level computation when the edge budget is exhausted;
    * the partially computed level is discarded (ℓ(k) = completed levels).
    */
  private final class BudgetExceeded extends RuntimeException(null, null, false, false)

  /** The deterministic part of Algorithm 3 for one node: completed-level
    * first-meeting mass `Σ_{ℓ≤ℓ(k)} Z_ℓ(k)`, the reached level, and the edges
    * traversed. The budget `min(2R(k)/√c, MaxEdgesPerNode)` is enforced at
    * edge granularity — mid-level overruns abort and discard that level.
    */
  def deterministicPhase(g: Csr, k: Int, rk: Long, c: Double, maxLevel: Int,
                         unboundedBudget: Boolean = false): Deterministic = {
    val sqrtC = math.sqrt(c)
    val budget =
      if (unboundedBudget) Long.MaxValue
      else math.min((2.0 * rk / sqrtC).toLong, MaxEdgesPerNode)

    var edges = 0L
    // Memoized non-stop transition distributions: dists(q)(ℓ) = (Pᵀ)^ℓ(q,·).
    val dists = mutable.HashMap.empty[Int, mutable.ArrayBuffer[mutable.HashMap[Int, Double]]]
    def distOf(q: Int, ell: Int): mutable.HashMap[Int, Double] = {
      val levels = dists.getOrElseUpdate(q, mutable.ArrayBuffer(mutable.HashMap(q -> 1.0)))
      while (levels.length <= ell) {
        val prev = levels.last
        val next = mutable.HashMap.empty[Int, Double]
        prev.foreach { case (x, p) =>
          val d = g.inDeg(x)
          if (d > 0) {
            val w = p / d
            var i = g.inOff(x)
            while (i < g.inOff(x + 1)) {
              val nb = g.inAdj(i)
              next.update(nb, next.getOrElse(nb, 0.0) + w)
              edges += 1
              if (edges > budget) throw new BudgetExceeded
              i += 1
            }
          }
        }
        levels += next
      }
      levels(ell)
    }

    // First-meeting maps Z_ℓ(k,·) for completed levels ℓ = 1..ℓ(k).
    val zMaps = mutable.ArrayBuffer.empty[mutable.HashMap[Int, Double]]
    var zSum = 0.0
    var completed = 0
    var exhausted = false
    while (!exhausted && completed < maxLevel) {
      val ell = completed + 1
      try {
        val wk = distOf(k, ell)
        if (wk.isEmpty) {
          // No surviving ℓ-step paths ⇒ no meets at this or any deeper level.
          return Deterministic(zSum, maxLevel, edges)
        }
        val z = mutable.HashMap.empty[Int, Double]
        val cl = math.pow(c, ell)
        wk.foreach { case (q, p) => z(q) = cl * p * p }
        var lp = 1
        while (lp <= ell - 1) {
          val zPrev = zMaps(ell - lp - 1) // Z_{ℓ−ℓ'}(k,·): maps are 1-indexed at idx-1
          val clp = math.pow(c, lp)
          zPrev.foreach { case (qp, zv) =>
            if (zv != 0.0) {
              distOf(qp, lp).foreach { case (q, w) =>
                z.update(q, z.getOrElse(q, 0.0) - clp * w * w * zv)
              }
            }
          }
          lp += 1
        }
        zMaps += z
        zSum += z.valuesIterator.sum
        completed = ell
        if (edges >= budget) exhausted = true
      } catch {
        case _: BudgetExceeded => exhausted = true // discard the partial level
      }
    }
    Deterministic(zSum, completed, edges)
  }

  /** Algorithm 3 for a single node, fully in-process (tests / reference):
    * deterministic phase plus serial tail sampling.
    */
  def estimateNode(g: Csr, k: Int, rk: Long, c: Double, rng: SplittableRandom,
                   maxLevel: Int = 30, unboundedBudget: Boolean = false): (Double, Long) = {
    val triv = trivial(g, k, c)
    if (triv.isDefined) return (triv.get, 0L)
    val det = deterministicPhase(g, k, rk, c, maxLevel, unboundedBudget)
    val sqrtC = math.sqrt(c)
    var tailMeets = 0L
    var r = 0L
    while (r < rk) {
      if (Walks.simulateTailPairMeet(g, k, det.level, sqrtC, rng)) tailMeets += 1
      r += 1
    }
    val tail = math.pow(c, det.level) * tailMeets.toDouble / math.max(1L, rk)
    (1.0 - det.zSum - tail, det.edges)
  }

  /** Exact D via the deterministic recursion alone (tests): run the Lemma-4
    * levels to `depth` with an unbounded budget; the untracked tail is ≤ c^depth.
    */
  def exactByRecursion(g: Csr, k: Int, c: Double, depth: Int): Double = {
    val rng = new SplittableRandom(1)
    // rk = 0 → no tail sampling; unbounded budget → full depth. Residual ≤ c^depth.
    val (dh, _) = estimateNode(g, k, 0L, c, rng, maxLevel = depth, unboundedBudget = true)
    dh
  }
}
