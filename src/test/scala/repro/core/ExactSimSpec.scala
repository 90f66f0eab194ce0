package repro.core

import repro.SimTestKit
import repro.graph.GraphData
import repro.eval.Metrics

class ExactSimSpec extends SimTestKit {

  private val testAlpha = 5.0 // generous sample budget for statistical tests

  test("ExactSimConf: iteration count covers the truncation error") {
    val conf = ExactSimConf(eps = 1e-4, sparse = false)
    assert(math.pow(conf.c, conf.iterations) <= 1e-4 / 2)
    assert(Linearized.iterationsFor(0.6, 1e-7) <= 40, "paper: L ≤ 73 at c in [0.6,0.8]")
  }

  test("ExactSimConf: sparse mode halves eps and sets the Lemma-2 threshold") {
    val conf = ExactSimConf(eps = 1e-3, sparse = true)
    assert(conf.epsEff == 5e-4)
    val t = 1 - math.sqrt(0.6)
    assert(math.abs(conf.truncationThreshold - t * t * 5e-4) < 1e-15)
    assert(ExactSimConf(eps = 1e-3, sparse = false).truncationThreshold == 0.0)
  }

  test("ExactSimConf: paper constant is 6/(1−√c)^4") {
    val t = 1 - math.sqrt(0.6)
    assert(math.abs(ExactSimConf.paperAlpha(0.6) - 6.0 / math.pow(t, 4)) < 1e-9)
    assert(ExactSimConf.paperAlpha(0.6) > 2000)
  }

  test("invalid configurations are rejected") {
    intercept[IllegalArgumentException](ExactSimConf(c = 1.2))
    intercept[IllegalArgumentException](ExactSimConf(eps = 0.0))
  }

  test("totalSamples is ⌈α·ln n/ε_eff²⌉ at a normal configuration") {
    val conf = ExactSimConf.optimized(1e-3, 1.0)
    assert(conf.totalSamples(2000) == math.ceil(math.log(2000) / (5e-4 * 5e-4)).toLong)
  }

  test("totalSamples rejects a budget that does not fit a Long") {
    // ε = 1e-9 at the paper's α on a 41.6M-node graph needs ≈1.6e23 pairs.
    val conf = ExactSimConf.optimized(1e-9, ExactSimConf.paperAlpha(0.6))
    val e = intercept[IllegalArgumentException](conf.totalSamples(41652230))
    Seq("eps=1.0E-9", s"alpha=${conf.alpha}", "n=41652230").foreach(s => assert(e.getMessage.contains(s), e.getMessage))
  }

  test("query entry points reject a source outside 0..n-1") {
    import repro.baselines.{Linearization, ParSim, PrSim}
    val g = rnd40
    val d = exactD(g)
    val entries: Seq[(String, Int => Any)] = Seq(
      "ExactSim" -> (s => ExactSim.singleSource(g, s, ExactSimConf.optimized(0.1, 1.0))),
      "PrSim" -> (s => PrSim.singleSource(g, s, PrSim.Index(d, 0L, 0.0, 0L), C, 0.1)),
      "ParSim" -> (s => ParSim.singleSource(g, s, C, 5)),
      "Linearization" -> (s => Linearization.singleSource(g, s, Linearization.Index(d, 0L, 0L), C, 0.1)))
    for ((name, query) <- entries; src <- Seq(g.n, -1)) {
      val e = intercept[IllegalArgumentException](query(src))
      assert(e.getMessage.contains(s"source $src") && e.getMessage.contains(s"n = ${g.n}"), s"$name: ${e.getMessage}")
    }
  }

  test("allocation: proportional mode gives ⌈R·π(k)⌉ to every support node") {
    val pi = Array(0.5, 0.25, 0.0, 0.001)
    val alloc = ExactSim.allocate(pi, 1000, piSquared = false).toMap
    assert(alloc(0) == 500 && alloc(1) == 250 && alloc(3) == 1 && !alloc.contains(2))
  }

  test("allocation: π² mode gives ⌈R·π(k)²⌉ (Lemma 3 scaling)") {
    val pi = Array(0.5, 0.1, 0.0)
    val alloc = ExactSim.allocate(pi, 1000, piSquared = true).toMap
    assert(alloc(0) == 250 && alloc(1) == 10 && !alloc.contains(2))
  }

  for (name <- Seq("pair", "cycle7", "path6"))
    test(s"exact on $name where every D entry is trivial") {
      // All in-degrees ≤ 1 ⇒ D̂ is exact ⇒ ExactSim is deterministic up to c^L.
      val g = battery.find(_.name == name).get
      val truth = groundTruth(g)
      val conf = ExactSimConf.optimized(1e-6, testAlpha)
      (0 until g.n).foreach { src =>
        val res = ExactSim.singleSource(g, src, conf)
        assertVecNear(res.scores, truth(src), 1e-6, s"${g.name} src $src")
      }
    }

  test("pair graph: S(0,·) is exactly (1, c, 0)") {
    val res = ExactSim.singleSource(pair, 0, ExactSimConf.optimized(1e-7, 1.0))
    assert(math.abs(res.scores(0) - 1.0) < 1e-12)
    assert(math.abs(res.scores(1) - C) < 1e-7)
    assert(math.abs(res.scores(2)) < 1e-12)
  }

  for (name <- Seq("cycle7", "path6", "star8", "complete5", "pair", "rnd40", "rnd60u", "rnd80"))
    test(s"optimized ExactSim matches Power Method on $name") {
      val g = battery.find(_.name == name).get
      val truth = groundTruth(g)
      val src = g.n / 3
      val res = ExactSim.singleSource(g, src, ExactSimConf.optimized(0.02, testAlpha, seed = 7))
      val err = Metrics.maxError(res.scores, truth(src))
      assert(err < 0.03, s"${g.name}: maxErr $err")
    }

  test("basic ExactSim (§3.1, all optimizations off) matches Power Method") {
    for (g <- Seq(star8, complete5, rnd40, rnd60u)) {
      val truth = groundTruth(g)
      val src = 1
      val res = ExactSim.singleSource(g, src, ExactSimConf.basic(0.02, testAlpha, seed = 8))
      val err = Metrics.maxError(res.scores, truth(src))
      assert(err < 0.03, s"${g.name}: maxErr $err")
    }
  }

  test("each optimization flag individually preserves correctness") {
    val g = rnd80
    val truth = groundTruth(g)
    val src = 5
    val combos = Seq(
      ("sparse only", ExactSimConf(eps = 0.02, alpha = testAlpha, sparse = true, piSquared = false, localExploit = false, seed = 9)),
      ("piSquared only", ExactSimConf(eps = 0.02, alpha = testAlpha, sparse = false, piSquared = true, localExploit = false, seed = 10)),
      ("localExploit only", ExactSimConf(eps = 0.02, alpha = testAlpha, sparse = false, piSquared = false, localExploit = true, seed = 11)),
    )
    combos.foreach { case (name, conf) =>
      val err = Metrics.maxError(ExactSim.singleSource(g, src, conf).scores, truth(src))
      assert(err < 0.03, s"$name: maxErr $err")
    }
  }

  test("smaller eps gives smaller error (ladder is monotone-ish)") {
    val g = rnd60u
    val truth = groundTruth(g)
    val src = 2
    val errs = Seq(0.3, 0.03).map { eps =>
      Metrics.maxError(ExactSim.singleSource(g, src,
        ExactSimConf.optimized(eps, testAlpha, seed = 12)).scores, truth(src))
    }
    assert(errs(1) < errs(0), s"errors $errs should decrease with eps")
    assert(errs(1) < 0.05)
  }

  test("results are deterministic in the seed and engine-independent") {
    val g = rnd40
    val conf = ExactSimConf.optimized(0.05, 1.0, seed = 33)
    val a = ExactSim.singleSource(g, 4, conf).scores
    val b = ExactSim.singleSource(g, 4, conf).scores
    assert(java.util.Arrays.equals(a, b))
    // The CSR is the only engine, so what can vary is the edge list it is
    // built from: the same graph with its edges in another order gives the
    // same bits.
    val shuffled = GraphData.fromLocal(spark, "rnd40-reversed", g.n, g.csr.edgePairs.reverse.toSeq)
    val c2 = ExactSim.singleSource(shuffled, 4, conf).scores
    assert(java.util.Arrays.equals(c2, a), "answer depends on the edge order")
  }

  test("sparse mode stores strictly fewer hop-vector bytes than dense mode") {
    val g = rnd80
    val dense = ExactSim.singleSource(g, 0, ExactSimConf(eps = 0.01, alpha = 1.0, sparse = false, seed = 1))
    val sparse = ExactSim.singleSource(g, 0, ExactSimConf(eps = 0.01, alpha = 1.0, sparse = true, seed = 1))
    assert(dense.denseHopVectorBytes > 0)
    assert(sparse.hopVectorBytes < dense.denseHopVectorBytes)
  }

  test("π² sampling uses far fewer walk pairs on skewed PPR (Lemma 3)") {
    val g = star8 // PPR from a leaf is concentrated: ‖π‖² close to ‖π‖₁²
    val basic = ExactSim.singleSource(g, 1, ExactSimConf(eps = 0.01, alpha = testAlpha, sparse = false, piSquared = false, localExploit = false, seed = 2))
    val opt = ExactSim.singleSource(g, 1, ExactSimConf(eps = 0.01, alpha = testAlpha, sparse = false, piSquared = true, localExploit = false, seed = 2))
    assert(opt.walkPairs < basic.walkPairs, s"${opt.walkPairs} vs ${basic.walkPairs}")
  }

  test("scores stay within [0, 1+eps] and the source scores 1") {
    for (g <- Seq(rnd40, rnd60u)) {
      val res = ExactSim.singleSource(g, 3, ExactSimConf.optimized(0.05, 1.0, seed = 3))
      assert(res.scores(3) == 1.0)
      res.scores.foreach(s => assert(s >= -0.05 && s <= 1.05))
    }
  }

  test("top-k from ExactSim at small eps equals the exact top-k") {
    val g = rnd80
    val truth = groundTruth(g)
    val src = 7
    val res = ExactSim.singleSource(g, src, ExactSimConf.optimized(1e-3, testAlpha, seed = 14))
    val p = Metrics.precisionAtK(res.scores, truth(src), k = 10, source = src)
    assert(p == 1.0, s"precision@10 = $p")
  }
}
