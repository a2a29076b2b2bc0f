package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class BottomUpSpec extends AnyFunSuite {

  private val configs = Seq(
    ("full", Search.Config()),
    ("no-vd", Search.Config(vertexDeletion = false)),
    ("no-sl", Search.Config(sortLayers = false)),
    ("no-ir", Search.Config(initTopK = false)),
    ("no-pre", Search.Config(false, false, false)),
  )

  for (seed <- 1 to 5; (cfgName, cfg) <- configs.take(if (seed <= 2) 5 else 1)) {
    val g = TestGraphs.random(500 + seed, 25, 4, 0.2)
    val (d, s, k) = (2, 2, 3)

    test(s"returned cores are true d-CCs of their labels (seed=$seed, cfg=$cfgName)") {
      val out = BottomUpDCCS.run(g, d, s, k, cfg)
      out.result.foreach { c =>
        assert(c.layers.length == s)
        assert(c.vertices.toSeq == Dcc.compute(g, c.layers.toArray, d).toSeq,
          s"label ${c.layers} produced a wrong core")
      }
      assert(out.coverSize == SetOps.coverSize(out.result.map(_.vertices)))
    }
  }

  test("with k >= #candidates and no init, BU enumerates every candidate exactly") {
    for (seed <- 1 to 6; s <- 1 to 3) {
      val g = TestGraphs.random(510 + seed, 22, 4, 0.22)
      val d = 2
      val nCand = (0 until 4).combinations(s).size
      val out = BottomUpDCCS.run(g, d, s, nCand,
        Search.Config(initTopK = false))
      val got = out.result.map(c => (c.layers, c.vertices.toSeq)).toSet
      val exp = ExactDCCS.candidates(g, d, s).map(c => (c.layers, c.vertices.toSeq)).toSet
      assert(got == exp, s"seed=$seed s=$s: BU enumeration mismatch")
    }
  }

  test("coverage is at least 1/4 of the exact optimum on tiny instances") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(520 + seed, 16, 4, 0.25)
      val (d, s, k) = (2, 2, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      val got = BottomUpDCCS.run(g, d, s, k).coverSize
      assert(4 * got >= opt, s"seed=$seed: BU $got below 1/4 of optimum $opt")
    }
  }

  test("coverage is comparable to greedy on planted graphs") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.withPlantedClique(530 + seed, 40, 5, 0.08, 0 until 8, Seq(0, 1, 2))
      val (d, s, k) = (2, 2, 3)
      val gd = GreedyDCCS.run(g, d, s, k).coverSize
      val bu = BottomUpDCCS.run(g, d, s, k).coverSize
      assert(4 * bu >= gd, s"seed=$seed: BU=$bu far below GD=$gd")
    }
  }

  test("pruning reduces candidate generation vs greedy on larger graphs") {
    val g = TestGraphs.random(540, 120, 8, 0.06)
    val (d, s, k) = (2, 3, 5)
    val gd = GreedyDCCS.run(g, d, s, k)
    val bu = BottomUpDCCS.run(g, d, s, k)
    assert(bu.stats.candidatesGenerated <= gd.stats.candidatesGenerated,
      s"BU generated ${bu.stats.candidatesGenerated} vs GD ${gd.stats.candidatesGenerated}")
  }

  test("s = 1 returns per-layer d-cores") {
    val g = TestGraphs.random(541, 25, 3, 0.2)
    val out = BottomUpDCCS.run(g, 2, 1, 3)
    out.result.foreach { c =>
      assert(c.vertices.toSeq == NestedDeletion.dCore(g, c.layers.head, 2).toSeq)
    }
  }

  test("s = l uses the single full-layer candidate") {
    val g = TestGraphs.random(542, 25, 3, 0.25)
    val out = BottomUpDCCS.run(g, 2, 3, 2)
    val exp = Dcc.compute(g, Array(0, 1, 2), 2)
    // all returned cores must equal the unique candidate
    out.result.foreach(c => assert(c.vertices.toSeq == exp.toSeq))
    assert(out.coverSize == exp.length)
  }

  /** BU's answer as a set of (layers, vertices), checked against
    * `ExactDCCS`, with `dccCalls` bounded by a polynomial in l: the
    * preprocessing peels, InitTopK's k, and at most 2·l² in the tree.
    */
  private def buMatchesExact(g: MLGraph, d: Int, s: Int, k: Int): Unit = {
    val l = g.numLayers
    val exact = ExactDCCS.candidates(g, d, s)
    assert(exact.length < k || s == l)
    for ((cfgName, cfg) <- configs) {
      val out = BottomUpDCCS.run(g, d, s, k, cfg)
      val got = out.result.map(c => (c.layers, c.vertices.toSeq)).toSet
      assert(got == exact.map(c => (c.layers, c.vertices.toSeq)).toSet, cfgName)
      assert(out.coverSize == ExactDCCS.bestCover(exact, k)._2, cfgName)
      val rounds = Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion).rounds
      assert(out.stats.dccCalls <= l * rounds + k + 2 * l * l,
        s"$cfgName: ${out.stats.dccCalls} dCC calls at l=$l s=$s k=$k")
    }
  }

  test("s = l returns the one candidate with dccCalls polynomial in l") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.withPlantedClique(550 + seed, 30, 14, 0.1, 0 until 6, 0 until 14)
      buMatchesExact(g, 2, 14, 3)
    }
  }

  test("C(l,s) < k returns every candidate with dccCalls polynomial in l") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.withPlantedClique(560 + seed, 30, 14, 0.15, 0 until 6, 0 until 12)
      buMatchesExact(g, 2, 13, 20) // C(14,13) = 14 < 20
    }
  }

  test("empty graph is handled") {
    val out = BottomUpDCCS.run(MLGraph.empty(3, 8), 1, 2, 2)
    assert(out.coverSize == 0)
  }

  test("deterministic across runs") {
    val g = TestGraphs.random(543, 30, 4, 0.2)
    val a = BottomUpDCCS.run(g, 2, 2, 3)
    val b = BottomUpDCCS.run(g, 2, 2, 3)
    assert(a.result.map(_.layers) == b.result.map(_.layers))
    assert(a.coverSize == b.coverSize)
  }
}
