package repro.core

import scala.collection.mutable

/** The hierarchical vertex index of Section V-C.
  *
  * Vertices are iteratively removed in batches by growing support threshold
  * `h`: at threshold `h`, each batch removes every surviving vertex with
  * `Num(v) ≤ h` (support = number of layers whose d-core, recomputed on the
  * surviving graph, contains v). `I_h` is the set of vertices removed at
  * threshold `h`; inside `I_h` each batch forms one level, later batches on
  * higher levels. Every vertex carries `L(v)` — the set of layers (here:
  * layer *positions* in the algorithm's sorted order) whose d-core contained
  * it just before its removal. Index edges are the union-graph edges.
  *
  * Built once per TD-DCCS run on the preprocessed graph.
  */
final class CoreIndex private (
    val numVertices: Int,
    /** threshold h at which each vertex was removed; -1 if not indexed. */
    val hOf: Array[Int],
    /** global level (batch order) of each vertex; -1 if not indexed. */
    val levelOf: Array[Int],
    /** L(v) as sorted layer positions; null if not indexed. */
    val lvOf: Array[Array[Int]],
    /** vertices of each level, ascending level id. */
    val levels: Array[Array[Int]],
)

object CoreIndex {

  /** @param g      the multi-layer graph
    * @param order  layer position -> original layer id (TD sort order)
    * @param active vertices surviving preprocessing (sorted)
    */
  def build(g: MLGraph, order: Array[Int], d: Int, active: Array[Int]): CoreIndex = {
    val n = g.numVertices
    val l = g.numLayers
    val hOf = Array.fill(n)(-1)
    val levelOf = Array.fill(n)(-1)
    val lvOf = new Array[Array[Int]](n)
    val levels = mutable.ArrayBuffer.empty[Array[Int]]

    var act = active
    // membership bitsets of the current per-position d-cores
    def coreBits(): Array[java.util.BitSet] = {
      val cores = DCore.allLayers(g, d, act)
      order.map { li =>
        val bs = new java.util.BitSet(n)
        cores(li).foreach(bs.set)
        bs
      }
    }

    var bits = coreBits()
    var h = 1
    var level = 0
    while (h <= l && act.nonEmpty) {
      var more = true
      while (more && act.nonEmpty) {
        val batch = act.filter { v =>
          var c = 0; var p = 0
          while (p < l) { if (bits(p).get(v)) c += 1; p += 1 }
          c <= h
        }
        if (batch.isEmpty) more = false
        else {
          batch.foreach { v =>
            hOf(v) = h
            levelOf(v) = level
            lvOf(v) = (0 until l).filter(p => bits(p).get(v)).toArray
          }
          levels += batch
          level += 1
          val gone = batch.toSet
          act = act.filterNot(gone)
          bits = coreBits()
        }
      }
      h += 1
    }
    // Any stragglers (can only happen if act never empties, which it must —
    // every vertex has Num(v) ≤ l); defensive:
    require(act.isEmpty, s"index construction left ${act.length} vertices unassigned")

    new CoreIndex(n, hOf, levelOf, lvOf, levels.toArray)
  }
}
