package repro.eval

/** Quality metrics of §4 ("Metrics"): MaxError over the single-source vector
  * and Precision@k against the ground-truth top-k.
  */
object Metrics {

  /** `max_j |ŝ(j) − s(j)|` over all nodes. */
  def maxError(est: Array[Double], truth: Array[Double]): Double = {
    require(est.length == truth.length, "length mismatch")
    var m = 0.0
    var i = 0
    while (i < est.length) { m = math.max(m, math.abs(est(i) - truth(i))); i += 1 }
    m
  }

  /** Top-k node ids by score, source excluded, ties broken by ascending id
    * (deterministic on both the estimate and the truth side).
    */
  def topK(scores: Array[Double], k: Int, exclude: Int = -1): Seq[Int] =
    scores.indices
      .filter(_ != exclude)
      .sortBy(i => (-scores(i), i))
      .take(k)

  /** Fraction of the estimated top-k that appears in the true top-k. */
  def precisionAtK(est: Array[Double], truth: Array[Double], k: Int, source: Int): Double = {
    val t = topK(truth, k, source).toSet
    val e = topK(est, k, source)
    if (t.isEmpty) 1.0 else e.count(t.contains).toDouble / k
  }
}
