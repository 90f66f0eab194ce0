package repro.baselines

import repro.SimTestKit
import repro.eval.Metrics
import repro.core.Linearized
import repro.linalg.SparkEngine

class ParSimSpec extends SimTestKit {

  test("exact on graphs where D = (1−c)I is the true diagonal (cycle, path, pair off-diagonal)") {
    // On the cycle every node has in-degree 1, so D = (1−c)I exactly.
    val truth = groundTruth(cycle7)
    val res = ParSim.singleSource(cycle7, 2, C, iters = 40)
    assertVecNear(res.scores, truth(2), 1e-8, "ParSim on cycle7")
  }

  test("error decreases with L down to the D-approximation bias floor") {
    val g = rnd60u
    val truth = groundTruth(g)
    val errs = Seq(1, 3, 10, 40).map { l =>
      Metrics.maxError(ParSim.singleSource(g, 4, C, l).scores, truth(4))
    }
    assert(errs(1) <= errs(0) + 1e-12 && errs(2) <= errs(1) + 1e-12)
    // The floor: more iterations stop helping once c^L ≪ bias.
    assert(math.abs(errs(3) - errs(2)) < 0.05)
  }

  test("ParSim has a persistent bias on graphs with in-degree ≥ 2 (ignores first meeting)") {
    // The paper's point: D=(1−c)I ignores the first-meeting constraint; on
    // star/complete graphs the bias is visible at any L.
    for (g <- Seq(star8, complete5)) {
      val truth = groundTruth(g)
      val err = Metrics.maxError(ParSim.singleSource(g, 1, C, 50).scores, truth(1))
      assert(err > 0.01, s"${g.name}: expected visible bias, got $err")
    }
  }

  test("high precision@k despite MaxError bias (the paper's Figure 2 finding)") {
    val g = rnd80
    val truth = groundTruth(g)
    val res = ParSim.singleSource(g, 5, C, 30)
    val prec = Metrics.precisionAtK(res.scores, truth(5), k = 10, source = 5)
    assert(prec >= 0.8, s"precision@10 $prec")
  }

  test("deterministic and engine-independent") {
    val g = rnd40
    val a = ParSim.singleSource(g, 3, C, 15).scores
    assert(java.util.Arrays.equals(ParSim.singleSource(g, 3, C, 15).scores, a))
    // The same passes through the benchmark's timing seam give the same bits.
    val eng = new SparkEngine(g)
    val b = Linearized.backward(eng, Linearized.forward(eng, 3, C, 15), Array.fill(g.n)(1.0 - C), C)
    b(3) = 1.0
    assert(java.util.Arrays.equals(b, a), "ParSim through the LinEngine seam")
  }
}
