package repro.eval

import repro.SimTestKit
import repro.core.{ExactSim, ExactSimConf}

class MemoryModelSpec extends SimTestKit {

  test("row ratios") {
    val r = MemoryModel.Row("x", basicBytes = 1200, optimizedBytes = 200, graphBytes = 600)
    assert(r.basicOverGraph == 2.0)
    assert(r.basicOverOptimized == 6.0)
  }

  test("fmtMB prints mebibytes with 2 decimals") {
    assert(MemoryModel.fmtMB(1048576) == "1.00")
    assert(MemoryModel.fmtMB(5 * 1048576 + 524288) == "5.50")
  }

  test("dense bytes are a whole number of n·8 vectors bounded by (L+1)·n·8") {
    val g = rnd40
    val conf = ExactSimConf.optimized(0.05, 1.0, seed = 2)
    val res = ExactSim.singleSource(g, 0, conf)
    // Truncation can kill the hop distribution before L, so the stored count
    // is between 1 and L+1 full vectors.
    assert(res.denseHopVectorBytes % (g.n * 8L) == 0)
    assert(res.denseHopVectorBytes > 0)
    assert(res.denseHopVectorBytes <= (conf.iterations + 1).toLong * g.n * 8)
  }
}
