package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class PreprocessSpec extends AnyFunSuite {

  for (seed <- 1 to 6) {
    val g = TestGraphs.random(100 + seed, 30, 4, 0.15)
    val d = 2; val s = 2

    test(s"survivors all have Num(v) >= s (seed=$seed)") {
      val st = Preprocess.vertexDeletion(g, d, s)
      val num = st.num(g.numVertices)
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

  test("allLayers equals one DCore.compute per layer") {
    for (seed <- 1 to 4; l <- Seq(3, 10)) {
      val g = TestGraphs.random(300 + seed, 40, l, 0.12)
      val within = Array.range(0, 40).filter(_ % 3 != 0)
      for (d <- 1 to 3; w <- Seq(null, within)) {
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
    val num = st.num(g.numVertices)
    st.active.foreach(v => assert(num(v) >= 1))
  }

  test("high s on sparse graph empties the active set") {
    val g = TestGraphs.random(202, 20, 4, 0.03)
    val st = Preprocess.vertexDeletion(g, 5, 4)
    assert(st.active.isEmpty)
    assert(st.layerCores.forall(_.isEmpty))
  }
}
