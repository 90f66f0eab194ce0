package repro.baselines

import repro.SimTestKit
import repro.core.{DiagEstimator, Linearized}
import repro.eval.Metrics
import repro.linalg.LocalEngine

class PrSimSpec extends SimTestKit {

  private def local(g: repro.graph.GraphData) = Some(new LocalEngine(g.csr))

  /** The index build's tasks at `eps`, from its own PageRank. */
  private def tasks(g: repro.graph.GraphData, eps: Double, alpha: Double): Seq[(Int, Long)] =
    PrSim.pairTasks(g.n, PrSim.globalPageRank(g, C, Linearized.iterationsFor(C, eps), local(g)), eps, alpha)

  private def plannedPairs(g: repro.graph.GraphData, eps: Double, alpha: Double): Long =
    tasks(g, eps, alpha).map(_._2).sum

  test("globalPageRank is the average of the PPR vectors") {
    val g = rnd40
    val eng = new LocalEngine(g.csr)
    val iters = 30
    val pr = PrSim.globalPageRank(g, C, iters, local(g))
    // Average the per-source PPR vectors computed independently.
    val avg = new Array[Double](g.n)
    (0 until g.n).foreach { s =>
      val fwd = repro.core.Linearized.forward(eng, s, C, iters)
      (0 until g.n).foreach(k => avg(k) += fwd.pi(k) / g.n)
    }
    assertVecNear(pr, avg, 1e-9, "global PageRank")
  }

  test("PageRank mass is ≤ 1 and positive somewhere") {
    val pr = PrSim.globalPageRank(rnd60u, C, 30, local(rnd60u))
    assert(pr.sum <= 1.0 + 1e-9 && pr.sum > 0.5)
    pr.foreach(p => assert(p >= 0))
  }

  test("queries with the sampled index match ground truth within tolerance") {
    val g = rnd60u
    val truth = groundTruth(g)
    val idx = PrSim.buildIndex(g, C, eps = 0.05, alpha = 8.0, seed = 1, local(g))
    val res = PrSim.singleSource(g, 3, idx, C, eps = 0.05, local(g))
    val err = Metrics.maxError(res.scores, truth(3))
    assert(err < 0.08, s"maxErr $err")
  }

  test("with the exact diagonal the query is exact (shares the linearized path)") {
    val g = rnd40
    val truth = groundTruth(g)
    val idx = PrSim.Index(exactD(g), 0L, 0.0, 0L)
    val res = PrSim.singleSource(g, 8, idx, C, eps = 1e-8, local(g))
    assertVecNear(res.scores, truth(8), 1e-7, "PRSim with exact D")
  }

  test("plannedPairs matches the built index's walk count") {
    val g = rnd80
    val planned = plannedPairs(g, eps = 0.2, alpha = 2.0)
    val idx = PrSim.buildIndex(g, C, eps = 0.2, alpha = 2.0, seed = 2, local(g))
    // The build samples every planned task except the trivial-D nodes.
    val sampled = tasks(g, eps = 0.2, alpha = 2.0).collect {
      case (k, r) if DiagEstimator.trivial(g.csr, k, C).isEmpty => r
    }.sum
    assert(idx.walkPairs == sampled && sampled <= planned)
    assert(planned > 0)
  }

  test("preprocessing cost scales with n·‖π̄‖²/ε² (the §2.2 obstacle)") {
    val g = rnd80
    val coarse = plannedPairs(g, eps = 0.2, alpha = 2.0)
    val fine = plannedPairs(g, eps = 0.02, alpha = 2.0)
    assert(fine > 50 * coarse, s"fine $fine vs coarse $coarse") // 100× in theory, ceil noise
  }
}
