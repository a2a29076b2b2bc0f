package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** Distributed DCCS drivers.
  *
  * The bulk phases — vertex-deletion preprocessing and per-layer d-cores —
  * run as DataFrame dataflow; the search phase (thousands of tiny dCC calls
  * on already-pruned subgraphs) then runs on the collected pruned graph,
  * mirroring the paper's single-machine search. `greedyDistributed` is the
  * fully-dataflow GD variant in which *every* candidate d-CC is a
  * DataFrame peel — used to validate the distributed path end-to-end
  * (each candidate is its own Spark job chain, so it is test-scale only).
  */
object SparkDCCS {

  sealed trait Algo
  case object GD extends Algo
  case object BU extends Algo
  case object TD extends Algo

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
    algo match {
      case GD => GreedyDCCS.run(g, d, s, k)
      case BU => BottomUpDCCS.run(g, d, s, k)
      case TD => TopDownDCCS.run(g, d, s, k)
    }
  }

  /** GD-DCCS with every candidate d-CC computed by DataFrame peeling. */
  def greedyDistributed(spark: SparkSession, edges: DataFrame, numLayers: Int,
                        d: Int, s: Int, k: Int): GreedyDCCS.Output = {
    val t0 = System.nanoTime()
    val pruned = SparkGraph.vertexDeletionDF(spark, edges, numLayers, d, s)
    val candidates = (0 until numLayers).combinations(s).map { combo =>
      val cc = SparkGraph.collectVertices(
        SparkGraph.dccDF(spark, pruned, combo, d))
      Core(combo.toVector, cc)
    }.toArray
    val (picked, cover) = GreedyDCCS.select(candidates, k)
    GreedyDCCS.Output(picked, cover,
      GreedyDCCS.Stats(candidates.length, candidates.length,
                       (System.nanoTime() - t0) / 1000000L))
  }
}
