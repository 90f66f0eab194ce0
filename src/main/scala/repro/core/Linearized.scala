package repro.core

import repro.linalg.{LinEngine, SparseVec}

/** Shared machinery for the linearized SimRank form (paper eq. 8):
  *
  *   S·e_i = 1/(1−√c) · Σ_{ℓ=0}^{L} (√c Pᵀ)^ℓ D π_i^ℓ,
  *   π_i^ℓ = (1−√c)(√c P)^ℓ e_i.
  *
  * The forward pass produces the ℓ-hop PPR vectors (optionally truncated per
  * the sparse-Linearization optimization); the backward pass folds them with a
  * diagonal `D̂` into the single-source SimRank vector. Both passes take their
  * products from a [[LinEngine]]: the graph's driver-side CSR, or a wrapper
  * around it that times each product.
  */
object Linearized {

  /** Number of iterations needed for truncation error ≤ eps: ⌈log_{1/c}(2/eps)⌉. */
  def iterationsFor(c: Double, eps: Double): Int =
    math.ceil(math.log(2.0 / eps) / math.log(1.0 / c)).toInt.max(1)

  /** Forward pass result.
    *
    * @param hops  π_i^0 .. π_i^L (truncated if `threshold > 0`)
    * @param pi    Σ_ℓ π_i^ℓ over the stored (truncated) hops — the PPR vector
    *              used for sample allocation; sums to ≤ 1 (dangling nodes leak
    *              mass). Every node whose D̂ the backward pass reads appears in
    *              a stored hop, so it has π(k) > 0 and gets at least one pair.
    */
  final case class Forward(hops: IndexedSeq[SparseVec], pi: Array[Double]) {
    def piNormSq: Double = { var s = 0.0; var i = 0; while (i < pi.length) { s += pi(i) * pi(i); i += 1 }; s }
    /** Total heap bytes of the stored hop vectors (Table 3 accounting). */
    def hopBytes: Long = hops.map(_.bytes).sum
    /** Bytes had the vectors been stored dense (basic ExactSim). */
    def denseBytes: Long = hops.length.toLong * pi.length * 8
  }

  /** Compute π_i^ℓ for ℓ = 0..L and their sum.
    *
    * @param threshold sparse-Linearization truncation: entries ≤ threshold are
    *                  dropped from the *stored* hop vectors. The iteration
    *                  itself also proceeds from the truncated vector — that is
    *                  what bounds live memory — which is admissible because the
    *                  per-entry error introduced at each hop stays ≤ threshold
    *                  and Lemma 2 sums it to ≤ ε overall.
    */
  def forward(engine: LinEngine, source: Int, c: Double, iters: Int,
              threshold: Double = 0.0): Forward = {
    val n = engine.n
    val sqrtC = math.sqrt(c)
    val pi = new Array[Double](n)
    val hops = IndexedSeq.newBuilder[SparseVec]
    var cur = new Array[Double](n)
    cur(source) = 1.0 - sqrtC
    pi(source) = 1.0 - sqrtC
    hops += SparseVec.fromDense(cur)
    var ell = 1
    while (ell <= iters) {
      val next = engine.mulP(cur)
      var k = 0
      var mass = 0.0
      while (k < n) {
        next(k) *= sqrtC
        if (next(k) <= threshold && next(k) != 0.0) next(k) = 0.0
        pi(k) += next(k)
        mass += next(k)
        k += 1
      }
      hops += SparseVec.fromDense(next)
      cur = next
      ell += 1
      if (mass == 0.0) ell = iters + 1 // distribution died out (dead ends)
    }
    Forward(hops.result(), pi)
  }

  /** Backward pass: s^ℓ = √c·Pᵀ s^{ℓ−1} + D̂·π_i^{L−ℓ}/(1−√c); returns s^L. */
  def backward(engine: LinEngine, fwd: Forward, dhat: Array[Double], c: Double): Array[Double] = {
    val n = engine.n
    val sqrtC = math.sqrt(c)
    val inv = 1.0 / (1.0 - sqrtC)
    val hops = fwd.hops
    def dTerm(sv: SparseVec): Array[Double] = {
      val t = new Array[Double](n)
      var i = 0
      while (i < sv.nnz) { t(sv.ids(i)) = sv.vals(i) * dhat(sv.ids(i)) * inv; i += 1 }
      t
    }
    var s = dTerm(hops.last)
    var ell = hops.length - 2
    while (ell >= 0) {
      val prop = engine.mulPT(s)
      val add = dTerm(hops(ell))
      var k = 0
      while (k < n) { prop(k) = sqrtC * prop(k) + add(k); k += 1 }
      s = prop
      ell -= 1
    }
    s
  }
}
