package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.util.Random

class PreprocessSpec extends AnyFunSuite {

  for (seed <- 1 to 6) {
    val g = TestGraphs.random(100 + seed, 30, 4, 0.15)
    val d = 2; val s = 2

    test(s"survivors all have Num(v) >= s (seed=$seed)") {
      val st = Preprocess.vertexDeletion(g, d, s)
      val num = NestedDeletion.supportNum(g.numVertices, st.layerCores)
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
        assert(st.layerCores(i).toSeq == NestedDeletion.dCore(g, i, d, st.active).toSeq)
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
          assert(got == NestedDeletion.dCore(g, i, d).toSeq, s"layer=$i d=$d")
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
      for (d <- 0 to 4) {
        val got = DCore.allLayers(g, d)
        val exp = Array.tabulate(l)(i => NestedDeletion.dCore(g, i, d))
        assert(got.map(_.toSeq).toSeq == exp.map(_.toSeq).toSeq, s"seed=$seed l=$l d=$d")
      }
    }
  }

  test("disabled preprocessing keeps all vertices but computes cores") {
    val g = TestGraphs.random(200, 25, 3, 0.2)
    val st = Preprocess.vertexDeletion(g, 2, 3, enabled = false)
    assert(st.active.toSeq == (0 until 25))
    assert(st.rounds == 1)
    (0 until 3).foreach(i => assert(st.layerCores(i).toSeq == NestedDeletion.dCore(g, i, 2).toSeq))
  }

  test("with s = 1, only core-less vertices are deleted") {
    val g = TestGraphs.random(201, 25, 3, 0.2)
    val st = Preprocess.vertexDeletion(g, 2, 1)
    val num = NestedDeletion.supportNum(g.numVertices, st.layerCores)
    st.active.foreach(v => assert(num(v) >= 1))
  }

  test("high s on sparse graph empties the active set") {
    val g = TestGraphs.random(202, 20, 4, 0.03)
    val st = Preprocess.vertexDeletion(g, 5, 4)
    assert(st.active.isEmpty)
    assert(st.layerCores.forall(_.isEmpty))
  }

  private def assertSameState(got: Preprocess.State, exp: Preprocess.State, clue: String): Unit = {
    assert(got.active.toSeq == exp.active.toSeq, clue)
    assert(got.layerCores.length == exp.layerCores.length, clue)
    got.layerCores.indices.foreach { i =>
      assert(got.layerCores(i).toSeq == exp.layerCores(i).toSeq, s"$clue layer=$i")
    }
    assert(got.rounds == exp.rounds, clue)
  }

  /** A random graph of 2-7 layers with some of: an empty layer, a copy of
    * another layer, isolated vertices in front and at the end; the layer
    * densities vary, so that deletion takes from one to many rounds.
    */
  private def mixed(seed: Long): MLGraph = {
    val rng = new Random(seed)
    val l = 2 + rng.nextInt(6)
    val n = 8 + rng.nextInt(50)
    val ps = Array.fill(l)(0.03 + 0.3 * rng.nextDouble())
    val empty = if (rng.nextBoolean()) rng.nextInt(l) else -1
    val copy = if (l > 2 && rng.nextBoolean()) rng.nextInt(l - 1) else -1 // copied onto layer l - 1
    val front = if (rng.nextBoolean()) rng.nextInt(6) else 0
    val back = if (rng.nextBoolean()) rng.nextInt(6) else 0
    val edges = for {
      li <- 0 until l if li != empty && !(copy >= 0 && li == l - 1)
      u <- 0 until n
      v <- (u + 1) until n
      if rng.nextDouble() < ps(li)
      t <- if (li == copy) Seq(li, l - 1) else Seq(li)
    } yield (t, u + front, v + front)
    MLGraph.fromEdges(l, front + n + back, edges)
  }

  test("vertex deletion equals the nested reference on random graphs (every d, every s)") {
    var multi = 0
    for (seed <- 1 to 60) {
      val g = mixed(1300 + seed)
      for (d <- -1 to 4; s <- 1 to g.numLayers) {
        val exp = NestedDeletion.run(g, d, s)
        assertSameState(Preprocess.vertexDeletion(g, d, s), exp, s"seed=$seed d=$d s=$s")
        if (exp.rounds >= 3) multi += 1
      }
    }
    assert(multi > 0)
  }

  for (preset <- Seq("stack", "english")) {
    test(s"vertex deletion equals the nested reference on the $preset-quarter graph") {
      val g = TestGraphs.quarter(preset, 19)
      val l = g.numLayers
      for (s <- Seq(3, l / 2, l - 2, l - 1); d <- Seq(3, 4)) {
        assertSameState(Preprocess.vertexDeletion(g, d, s), NestedDeletion.run(g, d, s),
          s"$preset d=$d s=$s")
      }
    }
  }
}
