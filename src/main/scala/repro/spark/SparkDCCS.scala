package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** Distributed DCCS driver.
  *
  * The bulk phase — vertex-deletion preprocessing with its per-layer
  * d-cores — runs as DataFrame dataflow; the search phase (thousands of tiny
  * dCC calls on already-pruned subgraphs) then runs on the collected pruned
  * graph, mirroring the paper's single-machine search.
  */
object SparkDCCS {

  /** Distributed preprocessing + local search. `numVertices` is the vertex
    * universe size of the edge DataFrame.
    */
  def run(spark: SparkSession, edges: DataFrame, numLayers: Int, numVertices: Int,
          algo: Algo, d: Int, s: Int, k: Int): GreedyDCCS.Output = {
    val pruned = SparkGraph.vertexDeletionDF(spark, edges, numLayers, d, s)
    val g = SparkGraph.toLocal(pruned, numLayers, numVertices)
    // The local vertex-deletion pass converges in one round on the already
    // distributed-pruned graph; keeping it on makes the outputs bit-identical
    // to the purely local algorithms.
    algo.run(g, d, s, k)
  }
}
