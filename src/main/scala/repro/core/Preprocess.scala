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
}
