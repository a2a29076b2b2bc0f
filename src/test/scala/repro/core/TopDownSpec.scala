package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class TopDownSpec extends AnyFunSuite {

  private val configs = Seq(
    ("full", Search.Config()),
    ("no-vd", Search.Config(vertexDeletion = false)),
    ("no-sl", Search.Config(sortLayers = false)),
    ("no-ir", Search.Config(initTopK = false)),
    ("no-pre", Search.Config(false, false, false)),
  )

  for (seed <- 1 to 5; (cfgName, cfg) <- configs.take(if (seed <= 2) 5 else 1)) {
    val g = TestGraphs.random(600 + seed, 25, 4, 0.2)
    val (d, s, k) = (2, 3, 3) // s >= l/2

    test(s"returned cores are true d-CCs of their labels (seed=$seed, cfg=$cfgName)") {
      val out = TopDownDCCS.run(g, d, s, k, cfg)
      out.result.foreach { c =>
        assert(c.layers.length == s)
        assert(c.vertices.toSeq == Dcc.compute(g, c.layers.toArray, d).toSeq,
          s"label ${c.layers} produced a wrong core (RefineU/RefineC bug)")
      }
      assert(out.coverSize == SetOps.coverSize(out.result.map(_.vertices)))
    }
  }

  test("with k >= #candidates and no init, TD enumerates every candidate exactly") {
    // This drives RefineU + RefineC through every node of the top-down
    // search tree and demands exact d-CCs everywhere. Without vertex
    // deletion RefineC sees the widest potential sets.
    for (seed <- 1 to 6; s <- 2 to 4; vd <- Seq(true, false)) {
      val g = TestGraphs.random(610 + seed, 22, 4, 0.22)
      val d = 2
      val nCand = (0 until 4).combinations(s).size
      val out = TopDownDCCS.run(g, d, s, nCand,
        Search.Config(vertexDeletion = vd, initTopK = false))
      val got = out.result.map(c => (c.layers, c.vertices.toSeq)).toSet
      val exp = ExactDCCS.candidates(g, d, s).map(c => (c.layers, c.vertices.toSeq)).toSet
      assert(got == exp, s"seed=$seed s=$s vd=$vd: TD enumeration mismatch")
    }
  }

  test("TD enumeration matches on denser / more-layer graphs too") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.random(620 + seed, 18, 5, 0.3)
      val d = 3; val s = 3
      val nCand = (0 until 5).combinations(s).size
      val out = TopDownDCCS.run(g, d, s, nCand, Search.Config(initTopK = false))
      val got = out.result.map(c => (c.layers, c.vertices.toSeq)).toSet
      val exp = ExactDCCS.candidates(g, d, s).map(c => (c.layers, c.vertices.toSeq)).toSet
      assert(got == exp)
    }
  }

  test("coverage is at least 1/4 of the exact optimum on tiny instances") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(630 + seed, 16, 4, 0.25)
      val (d, s, k) = (2, 3, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      val got = TopDownDCCS.run(g, d, s, k).coverSize
      assert(4 * got >= opt, s"seed=$seed: TD $got below 1/4 of optimum $opt")
    }
  }

  test("coverage is comparable to greedy at large s") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.withPlantedClique(640 + seed, 40, 5, 0.12, 0 until 8, Seq(0, 1, 2, 3, 4))
      val (d, s, k) = (2, 4, 3)
      val gd = GreedyDCCS.run(g, d, s, k).coverSize
      val td = TopDownDCCS.run(g, d, s, k).coverSize
      assert(4 * td >= gd, s"seed=$seed: TD=$td far below GD=$gd")
    }
  }

  test("s = l returns the full-layer core") {
    val g = TestGraphs.random(650, 25, 3, 0.25)
    val out = TopDownDCCS.run(g, 2, 3, 2)
    val exp = Dcc.compute(g, Array(0, 1, 2), 2)
    out.result.foreach(c => assert(c.vertices.toSeq == exp.toSeq))
    assert(out.coverSize == exp.length)
  }

  test("empty graph is handled") {
    val out = TopDownDCCS.run(MLGraph.empty(3, 8), 1, 2, 2)
    assert(out.coverSize == 0)
  }

  test("deterministic for a fixed seed") {
    val g = TestGraphs.random(651, 30, 4, 0.2)
    val a = TopDownDCCS.run(g, 2, 3, 3)
    val b = TopDownDCCS.run(g, 2, 3, 3)
    assert(a.result.map(_.layers) == b.result.map(_.layers))
    assert(a.coverSize == b.coverSize)
  }

  test("agrees with BU on which coverage is achievable (both >= 1/4 opt)") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(660 + seed, 20, 4, 0.25)
      val (d, s, k) = (2, 2, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      assert(4 * TopDownDCCS.run(g, d, s, k).coverSize >= opt)
      assert(4 * BottomUpDCCS.run(g, d, s, k).coverSize >= opt)
    }
  }
}
