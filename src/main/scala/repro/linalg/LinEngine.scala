package repro.linalg

import repro.graph.GraphData

/** Sparse matrix–vector products with the reverse transition matrix `P`
  * (`P(i,j) = 1/d_in(j)` for `i ∈ I(j)`).
  *
  * `mulP` advances a walk-occupancy distribution one step
  * (`x_{t+1} = P x_t`); `mulPT` is the backward/adjoint step used by the
  * linearized accumulation (eq. 6/8 of the paper). Every product is computed
  * by the driver-side [[repro.graph.Csr]]; the trait is the seam a caller can
  * wrap to time each product.
  */
trait LinEngine {
  def n: Int
  def mulP(x: Array[Double]): Array[Double]
  def mulPT(x: Array[Double]): Array[Double]
}

/** Forwards every product to `graph.csr`. Kept only because
  * `perfbench/src/main/scala/repro/perfbench/Trace.scala` builds it by name;
  * it goes with the next benchmark change.
  */
final class SparkEngine(graph: GraphData) extends LinEngine {
  def n: Int = graph.n
  def mulP(x: Array[Double]): Array[Double] = graph.csr.mulP(x)
  def mulPT(x: Array[Double]): Array[Double] = graph.csr.mulPT(x)
}
