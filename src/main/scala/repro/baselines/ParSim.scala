package repro.baselines

import repro.core.Linearized
import repro.graph.GraphData

/** ParSim (Yu & McCann): the linearized iteration with the approximation
  * `D = (1−c)·I`, i.e. the first-meeting constraint is ignored. Index-free;
  * the single parameter is the iteration count `L`. Its MaxError plateaus at
  * the bias of the D approximation — the paper's Figure 1/5 shape.
  */
object ParSim {

  final case class Result(scores: Array[Double], millis: Long)

  def singleSource(graph: GraphData, source: Int, c: Double, iters: Int): Result = {
    graph.requireSource(source)
    val t0 = System.nanoTime()
    val fwd = Linearized.forward(graph.csr, source, c, iters)
    val dhat = Array.fill(graph.n)(1.0 - c)
    val scores = Linearized.backward(graph.csr, fwd, dhat, c)
    scores(source) = 1.0
    Result(scores, (System.nanoTime() - t0) / 1000000)
  }
}
