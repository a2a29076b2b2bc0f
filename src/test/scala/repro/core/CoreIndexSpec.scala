package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Pins the documented unsoundness of the paper's Lemma 9 (DESIGN.md §4) on
  * a test-local build of the hierarchical core index of Section V-C. TD's
  * RefineC peels its potential set directly and builds no index.
  */
class CoreIndexSpec extends AnyFunSuite {

  /** Reference build of the index over the layers in id order: at each
    * threshold h = 1..l, remove batch after batch of the surviving vertices
    * with Num(v) ≤ h, counted over the d-cores of the survivors; each batch
    * is one level. Returns each vertex's level and L(v), the layers whose
    * d-core held it just before its removal (-1 and null if not indexed).
    */
  private def buildIndex(g: MLGraph, d: Int,
                         active: Array[Int]): (Array[Int], Array[Array[Int]]) = {
    val l = g.numLayers
    val levelOf = Array.fill(g.numVertices)(-1)
    val lvOf = new Array[Array[Int]](g.numVertices)
    var act = active
    var cores = NestedDeletion.layerCores(g, d, act).map(_.toSet)
    var level = 0
    var h = 1
    while (h <= l && act.nonEmpty) {
      val batch = act.filter(v => cores.count(_(v)) <= h)
      if (batch.isEmpty) h += 1
      else {
        batch.foreach { v =>
          levelOf(v) = level
          lvOf(v) = (0 until l).filter(p => cores(p)(v)).toArray
        }
        level += 1
        act = act.filterNot(batch.toSet)
        cores = NestedDeletion.layerCores(g, d, act).map(_.toSet)
      }
    }
    (levelOf, lvOf)
  }

  test("Lemma 9's chain property is violated on a concrete instance (documented unsoundness)") {
    // Regression pin for the counterexample that made us drop the paper's
    // chain-reachability discard from RefineC (see TopDownDCCS doc): on this
    // graph a vertex of C_{0,1} has no ascending index chain from a vertex
    // w0 with L ⊆ L(w0), so the Fig. 10 procedure would wrongly discard it.
    val g = TestGraphs.random(303, 25, 4, 0.2)
    val pre = Preprocess.vertexDeletion(g, 2, 1)
    val (levelOf, lvOf) = buildIndex(g, 2, pre.active)
    val active = pre.active.toSet
    val violated = (0 until g.numLayers).combinations(2).exists { combo =>
      val L = combo.toArray
      val cc = Dcc.compute(g, L, 2, pre.active)
      val reached = scala.collection.mutable.Set.empty[Int]
      pre.active.sortBy(levelOf).foreach { v =>
        val isStart = SetOps.subsetOf(L, lvOf(v))
        val fromBelow = g.unionAdj(v).exists(u =>
          active(u) && reached(u) && levelOf(u) < levelOf(v))
        if (isStart || fromBelow) reached += v
      }
      cc.exists(v => !reached(v))
    }
    assert(violated, "expected at least one Lemma-9 violation on this pinned instance")
  }
}
