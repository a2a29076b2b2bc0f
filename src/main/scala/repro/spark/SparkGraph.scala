package repro.spark

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.MLGraph

/** DataFrame operators over multi-layer graphs.
  *
  * Canonical edge schema: `(layer: Int, src: Int, dst: Int)` with `src < dst`
  * and one row per distinct undirected edge per layer. Peeling loops are
  * driver-controlled iterative dataflow (join + aggregate per round) with
  * `localCheckpoint` to truncate lineage — the DataFrame analogue of
  * iterative GraphX subgraph operators, per the reproduction plan.
  */
object SparkGraph {

  /** Local graph -> canonical edges DataFrame. */
  def toDF(spark: SparkSession, g: MLGraph): DataFrame = {
    import spark.implicits._
    g.edgeTriples.toSeq.toDF("layer", "src", "dst")
  }

  /** Canonical edges -> local MLGraph (vertex universe 0 until numVertices). */
  def toLocal(edges: DataFrame, numLayers: Int, numVertices: Int): MLGraph = {
    val triples = edges.select("layer", "src", "dst").collect().map {
      case Row(l: Int, u: Int, v: Int) => (l, u, v)
    }
    MLGraph.fromEdges(numLayers, numVertices, triples)
  }

  /** Both orientations of each edge: (layer, src, dst) with src ≠ dst. */
  def symmetric(edges: DataFrame): DataFrame =
    edges.select(col("layer"), col("src"), col("dst"))
      .union(edges.select(col("layer"), col("dst").as("src"), col("src").as("dst")))

  /** Per-(layer, vertex) degree; vertices isolated on a layer are absent. */
  def degrees(edges: DataFrame): DataFrame =
    symmetric(edges).groupBy(col("layer"), col("src").as("v"))
      .agg(count(lit(1)).cast("int").as("deg"))

  /** Per-layer edge counts. */
  def layerStats(edges: DataFrame): DataFrame =
    edges.groupBy(col("layer")).agg(count(lit(1)).as("edges")).orderBy("layer")

  /** Distributed vertex-deletion preprocessing (BU-DCCS lines 1-7) as one
    * joint peel over the live edges. Each step gives every (layer, v) pair
    * its degree among the live edges; a pair lives while that degree is
    * ≥ d, a vertex lives while `Num(v)`, its number of live pairs, is ≥ s,
    * and an edge on layer i stays while the (i, src) and (i, dst) pairs of
    * two live vertices both live. The fixpoint is the greatest
    * (A, S_1..S_l) with each S_i ⊆ A d-dense on layer i and each v ∈ A in
    * at least s of the S_i, the one the local per-round peels reach, so the
    * survivors A are the local ones. Returns the surviving edges: on layer
    * i, the edges inside S_i, the d-core of layer i within A. Only pairs
    * with an edge are seen, so d ≤ 0 peels as d = 1.
    */
  def vertexDeletionDF(edges0: DataFrame, d: Int, s: Int): DataFrame = {
    var edges = edges0.localCheckpoint()
    var nEdges = edges.count()
    // every step but the last drops an edge
    val maxSteps = nEdges + 1
    var steps = 0L
    var done = false
    while (!done) {
      steps += 1
      if (steps > maxSteps) throw new IllegalStateException(
        s"vertexDeletionDF: no fixpoint after $maxSteps steps on ${maxSteps - 1} edges")
      val pairs = degrees(edges).filter(col("deg") >= d)
      val liveVerts = pairs.groupBy(col("v")).agg(count(lit(1)).as("num"))
        .filter(col("num") >= s).select(col("v"))
      val live = pairs.join(liveVerts, Seq("v")).select(col("layer"), col("v"))
      val next = edges
        .join(live.withColumnRenamed("v", "src"), Seq("layer", "src"))
        .join(live.withColumnRenamed("v", "dst"), Seq("layer", "dst"))
        .select(col("layer"), col("src"), col("dst"))
        .localCheckpoint()
      val nNext = next.count()
      done = nNext == nEdges
      edges = next
      nEdges = nNext
    }
    edges
  }
}
