package repro.core

/** Vertex-deletion preprocessing (BU-DCCS lines 1-7, Section IV-C).
  *
  * Iteratively removes every vertex whose support number
  * `Num(v) = |{ i : v ∈ C^d(G_i) }|` is below `s`, recomputing all per-layer
  * d-cores after each removal round, until stable. Such vertices cannot
  * appear in any d-CC with |L| = s (Property 3 / Lemma 1), so this shrinks
  * the search graph without affecting any algorithm's output.
  *
  * Round 1 covers the whole graph, so its l d-cores are thresholds of the
  * graph's cached [[MLGraph.coreNumbers]] (no peel after the first query
  * on a graph); every later round peels each layer inside the survivors.
  */
object Preprocess {

  /** @param active     surviving vertices (sorted)
    * @param layerCores d-core of each layer restricted to `active` (sorted)
    * @param rounds     number of deletion rounds executed (1 = already stable)
    */
  final case class State(active: Array[Int],
                         layerCores: Array[Array[Int]],
                         rounds: Int)

  /** Run vertex deletion; with `enabled = false` just computes the per-layer
    * d-cores once (the algorithms still need them).
    */
  def vertexDeletion(g: MLGraph, d: Int, s: Int, enabled: Boolean = true): State = {
    var active = Array.range(0, g.numVertices)
    var cores  = DCore.allLayers(g, d)
    var rounds = 1
    if (!enabled) return State(active, cores, rounds)
    var changed = true
    while (changed) {
      val num = DCore.supportNum(g.numVertices, cores)
      val keep = active.filter(v => num(v) >= s)
      if (keep.length == active.length) changed = false
      else {
        active = keep
        cores = DCore.allLayers(g, d, active)
        rounds += 1
      }
    }
    State(active, cores, rounds)
  }

  /** The frame GD, BU and TD peel in: the survivors A of `pre` (`ids`, so
    * local id x is `ids(x)`), each layer core in local ids, and G[A], built
    * on first use, or `g` itself when nothing was deleted. Every layer core
    * and d-CC bound lies inside A, and the relabelling is monotone, so a
    * peel on `graph` gives the d-CC a peel on `g` gives, in local ids.
    */
  private[core] final class Survivors(g: MLGraph, val pre: State) {
    val ids: Array[Int] = pre.active
    private val all = ids.length == g.numVertices
    // a merge walk: the members of each sorted core, as positions in `ids`
    val layerCores: Array[Array[Int]] =
      if (all) pre.layerCores
      else pre.layerCores.map { c => var p = 0; c.map { v => while (ids(p) < v) p += 1; p } }
    lazy val graph: MLGraph = if (all) g else g.induced(ids)._1
  }
}
