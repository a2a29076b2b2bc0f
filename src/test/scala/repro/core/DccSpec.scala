package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class DccSpec extends AnyFunSuite {

  private val graphs = Seq(
    ("er-sparse", TestGraphs.random(10, 30, 3, 0.10)),
    ("er-mid",    TestGraphs.random(11, 30, 3, 0.20)),
    ("er-dense",  TestGraphs.random(12, 25, 4, 0.35)),
    ("planted",   TestGraphs.withPlantedClique(13, 40, 4, 0.05, 0 until 8, Seq(0, 1, 2))),
  )

  // --- fast peel == naive fixpoint, for every layer subset and d ----------
  for ((name, g) <- graphs; d <- 1 to 4) {
    val layerSubsets = (1 to g.numLayers).flatMap(sz => (0 until g.numLayers).combinations(sz))
    for (l <- layerSubsets.take(8)) {
      test(s"dCC($name, L=${l.mkString(",")}, d=$d) matches naive fixpoint") {
        assert(Dcc.compute(g, l.toArray, d).toSeq == NaiveDcc.compute(g, l.toArray, d).toSeq)
      }
    }
  }

  // --- restriction to `within` -------------------------------------------
  for ((name, g) <- graphs; d <- 2 to 3) {
    test(s"dCC within a subset == dCC of the induced subgraph ($name, d=$d)") {
      val within = (0 until g.numVertices by 2).toArray
      val got = Dcc.compute(g, Array(0, 1), d, within)
      val (sub, old) = g.induced(within)
      val exp = Dcc.compute(sub, Array(0, 1), d).map(old)
      assert(got.toSeq == exp.toSeq.sorted)
    }
  }

  // --- an unsorted scope with duplicates is treated as a set --------------
  for ((name, g) <- graphs; d <- Seq(0, 2, 3)) {
    test(s"dCC within a shuffled, duplicated scope matches naive ($name, d=$d)") {
      val rng = new scala.util.Random(name.hashCode + d)
      val base = (0 until g.numVertices).filter(_ => rng.nextDouble() < 0.7)
      val within = rng.shuffle(base ++ base.take(base.length / 3)).toArray
      assert(Dcc.compute(g, Array(0, 1), d, within).toSeq ==
        NaiveDcc.compute(g, Array(0, 1), d, within).toSeq)
    }
  }

  // --- the planted clique is found ----------------------------------------
  test("planted 8-clique on layers {0,1,2} survives as 7-CC") {
    val g = TestGraphs.withPlantedClique(99, 50, 4, 0.02, 0 until 8, Seq(0, 1, 2))
    val cc = Dcc.compute(g, Array(0, 1, 2), 7)
    assert((0 until 8).forall(cc.contains))
  }

  // --- properties from Section II -----------------------------------------
  for ((name, g) <- graphs) {
    test(s"Property 1 (maximality/d-density): result is d-dense and maximal ($name)") {
      val L = Array(0, 1)
      for (d <- 1 to 4) {
        val cc = Dcc.compute(g, L, d)
        val inSet = cc.toSet
        // d-dense
        cc.foreach(v => L.foreach(l =>
          assert(g.neighbors(l, v).count(inSet.contains) >= d)))
        // maximal: the d-CC of the whole graph IS the unique maximal set, so
        // recomputing within any superset returns the same set
        assert(Dcc.compute(g, L, d, Array.range(0, g.numVertices)).toSeq == cc.toSeq)
      }
    }

    test(s"Property 2 (hierarchy in d) ($name)") {
      val L = Array(0, g.numLayers - 1)
      var prev = Dcc.compute(g, L, 0)
      for (d <- 1 to 5) {
        val cur = Dcc.compute(g, L, d)
        assert(SetOps.subsetOf(cur, prev), s"d=$d not contained in d=${d - 1}")
        prev = cur
      }
    }

    test(s"Property 3 (containment in L) ($name)") {
      for (d <- 1 to 3) {
        val c1 = Dcc.compute(g, Array(0), d)
        val c12 = Dcc.compute(g, Array(0, 1), d)
        val c123 = Dcc.compute(g, Array(0, 1, 2), d)
        assert(SetOps.subsetOf(c12, c1))
        assert(SetOps.subsetOf(c123, c12))
      }
    }

    test(s"Lemma 1 (intersection bound) ($name)") {
      for (d <- 1 to 3) {
        val cU = Dcc.compute(g, Array(0, 1, 2), d)
        val c01 = Dcc.compute(g, Array(0, 1), d)
        val c2 = Dcc.compute(g, Array(2), d)
        assert(SetOps.subsetOf(cU, SetOps.intersect(c01, c2)))
      }
    }
  }

  test("d=0 returns all vertices in scope") {
    val g = TestGraphs.tiny
    assert(Dcc.compute(g, Array(0, 1), 0).toSeq == (0 until 5))
    assert(Dcc.compute(g, Array(0), 0, Array(1, 3)).toSeq == Seq(1, 3))
  }

  test("tiny graph hand-checked cores") {
    val g = TestGraphs.tiny
    // layer 0: 2-core is the triangle
    assert(Dcc.compute(g, Array(0), 2).toSeq == Seq(0, 1, 2))
    // layer 1: square is a 2-core
    assert(Dcc.compute(g, Array(1), 2).toSeq == Seq(0, 1, 2, 3))
    // both layers, d=2: vertex 3 dies on layer 0, then within {0,1,2} vertex
    // 0 has a single layer-1 neighbor, so the peel cascades to empty
    assert(Dcc.compute(g, Array(0, 1), 2).isEmpty)
    // d=3 kills everything (no vertex has degree 3 on layer 0)
    assert(Dcc.compute(g, Array(0, 1), 3).isEmpty)
  }

  test("DCore matches single-layer Dcc and supportNum counts correctly") {
    val g = TestGraphs.random(21, 40, 4, 0.15)
    for (li <- 0 until 4; d <- 1 to 3)
      assert(NestedDeletion.dCore(g, li, d).toSeq == Dcc.compute(g, Array(li), d).toSeq)
    val cores = DCore.allLayers(g, 2)
    val num = NestedDeletion.supportNum(g.numVertices, cores)
    (0 until g.numVertices).foreach { v =>
      assert(num(v) == cores.count(_.contains(v)))
    }
  }
}
