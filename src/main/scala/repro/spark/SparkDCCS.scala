package repro.spark

import org.apache.spark.sql.DataFrame
import repro.core._

/** Distributed DCCS driver.
  *
  * The bulk phase — vertex-deletion preprocessing, one joint peel of the
  * layer d-cores and the support counts — runs as DataFrame dataflow; the
  * search phase (thousands of tiny dCC calls on already-pruned subgraphs)
  * then runs on the collected pruned graph, mirroring the paper's
  * single-machine search.
  */
object SparkDCCS {

  /** Distributed preprocessing + local search. `numVertices` is the vertex
    * universe size of the edge DataFrame.
    */
  def run(edges: DataFrame, numLayers: Int, numVertices: Int,
          algo: Algo, d: Int, s: Int, k: Int): GreedyDCCS.Output = {
    val pruned = SparkGraph.vertexDeletionDF(edges, d, s)
    val g = SparkGraph.toLocal(pruned, numLayers, numVertices)
    // The local vertex deletion on the collected graph finds the local
    // engine's survivors and layer cores, but in its own number of rounds
    // (at d ≥ 1, round 1 drops the vertices left without edges and round 2
    // confirms). So the answers equal the local engine's, and so do the
    // search's counters apart from the l dCC calls counted per round.
    algo.run(g, d, s, k)
  }
}
