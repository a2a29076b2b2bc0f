package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class PreprocessSpec extends AnyFunSuite {

  for (seed <- 1 to 6) {
    val g = TestGraphs.random(100 + seed, 30, 4, 0.15)
    val d = 2; val s = 2

    test(s"survivors all have Num(v) >= s (seed=$seed)") {
      val st = Preprocess.vertexDeletion(g, d, s)
      val num = DCore.supportNum(g.numVertices, st.layerCores)
      st.active.foreach(v => assert(num(v) >= s))
    }

    test(s"vertex deletion preserves every candidate d-CC (seed=$seed)") {
      val st = Preprocess.vertexDeletion(g, d, s)
      (0 until g.numLayers).combinations(s).foreach { combo =>
        val full = Dcc.compute(g, combo.toArray, d)
        val pruned = Dcc.compute(g, combo.toArray, d, st.active)
        assert(full.toSeq == pruned.toSeq,
          s"candidate for L=${combo.mkString(",")} changed")
      }
    }

    test(s"layer cores returned equal cores within the active set (seed=$seed)") {
      val st = Preprocess.vertexDeletion(g, d, s)
      (0 until g.numLayers).foreach { i =>
        assert(st.layerCores(i).toSeq == DCore.compute(g, i, d, st.active).toSeq)
      }
    }
  }

  /** Graphs for the core-number checks: l ∈ {1, 3, 10}, one with an empty
    * layer and isolated vertices, a hub-heavy one and an edgeless one.
    */
  private val coreGraphs: Seq[(String, MLGraph)] = {
    val gapped = {
      val base = TestGraphs.random(611, 30, 4, 0.2)
      // layer 2 empty; vertices 30..34 isolated on every layer
      MLGraph.fromEdges(4, 35, base.edgeTriples.filter(_._1 != 2))
    }
    Seq(1, 3, 10).map(l => s"random l=$l" -> TestGraphs.random(600 + l, 40, l, 0.15)) ++
      Seq("empty layer + isolated" -> gapped,
          "zipf" -> TestGraphs.zipf(1003, 50, 3, 500),
          "edgeless" -> MLGraph.empty(2, 6))
  }

  for ((name, g) <- coreGraphs) {
    test(s"core-number thresholds equal DCore.compute for every d ($name)") {
      (0 until g.numLayers).foreach { i =>
        val core = g.coreNumbers(i)
        assert(core.length == g.numVertices)
        for (d <- 0 to core.max + 1) {
          val got = (0 until g.numVertices).filter(core(_) >= d)
          assert(got == DCore.compute(g, i, d).toSeq, s"layer=$i d=$d")
        }
      }
    }
  }

  test("core numbers are computed once per graph") {
    val g = TestGraphs.random(620, 30, 3, 0.2)
    assert(g.coreNumbers eq g.coreNumbers)
    Preprocess.vertexDeletion(g, 2, 2)
    assert(g.coreNumbers eq g.coreNumbers)
  }

  test("allLayers equals one DCore.compute per layer") {
    for (seed <- 1 to 4; l <- Seq(3, 10)) {
      val g = TestGraphs.random(300 + seed, 40, l, 0.12)
      val within = Array.range(0, 40).filter(_ % 3 != 0)
      for (d <- 0 to 4; w <- Seq(null, within)) {
        val got = DCore.allLayers(g, d, w)
        val exp = Array.tabulate(l)(i => DCore.compute(g, i, d, w))
        assert(got.map(_.toSeq).toSeq == exp.map(_.toSeq).toSeq, s"seed=$seed l=$l d=$d")
      }
    }
  }

  test("disabled preprocessing keeps all vertices but computes cores") {
    val g = TestGraphs.random(200, 25, 3, 0.2)
    val st = Preprocess.vertexDeletion(g, 2, 3, enabled = false)
    assert(st.active.toSeq == (0 until 25))
    assert(st.rounds == 1)
    (0 until 3).foreach(i => assert(st.layerCores(i).toSeq == DCore.compute(g, i, 2).toSeq))
  }

  test("with s = 1, only core-less vertices are deleted") {
    val g = TestGraphs.random(201, 25, 3, 0.2)
    val st = Preprocess.vertexDeletion(g, 2, 1)
    val num = DCore.supportNum(g.numVertices, st.layerCores)
    st.active.foreach(v => assert(num(v) >= 1))
  }

  test("high s on sparse graph empties the active set") {
    val g = TestGraphs.random(202, 20, 4, 0.03)
    val st = Preprocess.vertexDeletion(g, 5, 4)
    assert(st.active.isEmpty)
    assert(st.layerCores.forall(_.isEmpty))
  }
}
