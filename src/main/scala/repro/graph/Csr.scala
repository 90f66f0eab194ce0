package repro.graph

import java.util.SplittableRandom

import repro.linalg.LinEngine

/** Compact in-adjacency of a directed graph in CSR form.
  *
  * SimRank walks move to a uniform random **in**-neighbor, so the only
  * adjacency the algorithms need is `I(v)`. The structure is immutable and
  * small enough (two int arrays) to broadcast to Spark executors for
  * distributed √c-walk simulation and for Algorithm 3's local exploitation.
  * It is also the one mat-vec engine: every query's forward and backward
  * passes multiply here, on the driver, in `O(m)` per product.
  *
  * @param n     number of nodes, ids are `0 until n`
  * @param inOff offsets into `inAdj`; in-neighbors of `v` are
  *              `inAdj(inOff(v)) until inAdj(inOff(v+1))`
  * @param inAdj concatenated in-neighbor lists
  */
final class Csr(val n: Int, val inOff: Array[Int], val inAdj: Array[Int]) extends LinEngine with Serializable {

  /** Number of directed edges (u→v) — `u` an in-neighbor of `v`. */
  def m: Int = inAdj.length

  /** In-degree of node `v`. */
  def inDeg(v: Int): Int = inOff(v + 1) - inOff(v)

  /** In-neighbors of `v` as a read-only slice (do not mutate). */
  def inNeighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(inAdj, inOff(v), inOff(v + 1))

  /** One walk step: uniform random in-neighbor of `v`, or -1 at a dead end. */
  def step(v: Int, rng: SplittableRandom): Int = {
    val d = inDeg(v)
    if (d == 0) -1 else inAdj(inOff(v) + rng.nextInt(d))
  }

  /** `y = P·x` where `P(i,j) = 1/d_in(j)` for `i ∈ I(j)`:
    * mass at `j` spreads to each in-neighbor with weight `1/d_in(j)`.
    * This is one *forward* walk step on distributions.
    */
  def mulP(x: Array[Double]): Array[Double] = {
    require(x.length == n, s"vector length ${x.length} != n=$n")
    val y = new Array[Double](n)
    var v = 0
    while (v < n) {
      val d = inDeg(v)
      if (d > 0 && x(v) != 0.0) {
        val w = x(v) / d
        var p = inOff(v)
        val end = inOff(v + 1)
        while (p < end) { y(inAdj(p)) += w; p += 1 }
      }
      v += 1
    }
    y
  }

  /** `y = Pᵀ·x`: `y(v) = (1/d_in(v))·Σ_{a∈I(v)} x(a)`. */
  def mulPT(x: Array[Double]): Array[Double] = {
    require(x.length == n, s"vector length ${x.length} != n=$n")
    val y = new Array[Double](n)
    var v = 0
    while (v < n) {
      val d = inDeg(v)
      if (d > 0) {
        var s = 0.0
        var p = inOff(v)
        val end = inOff(v + 1)
        while (p < end) { s += x(inAdj(p)); p += 1 }
        y(v) = s / d
      }
      v += 1
    }
    y
  }

  /** All edges as (src, dst) pairs — src ∈ I(dst). Test/debug helper. */
  def edgePairs: Array[(Int, Int)] = {
    val out = new Array[(Int, Int)](m)
    var v = 0
    var i = 0
    while (v < n) {
      var p = inOff(v)
      while (p < inOff(v + 1)) { out(i) = (inAdj(p), v); i += 1; p += 1 }
      v += 1
    }
    out
  }
}

object Csr {

  /** Build from directed edge pairs (src → dst); duplicates are kept as given
    * (callers dedupe upstream), self-loops rejected.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): Csr = {
    val deg = new Array[Int](n)
    edges.foreach { case (s, d) =>
      require(s != d, s"self-loop $s rejected")
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of range n=$n")
      deg(d) += 1
    }
    val off = new Array[Int](n + 1)
    var v = 0
    while (v < n) { off(v + 1) = off(v) + deg(v); v += 1 }
    val adj = new Array[Int](off(n))
    val cur = java.util.Arrays.copyOf(off, n)
    edges.foreach { case (s, d) => adj(cur(d)) = s; cur(d) += 1 }
    // Sort each list so the structure is deterministic regardless of input order.
    v = 0
    while (v < n) { java.util.Arrays.sort(adj, off(v), off(v + 1)); v += 1 }
    new Csr(n, off, adj)
  }
}
