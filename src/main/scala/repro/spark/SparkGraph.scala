package repro.spark

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{MLGraph, SetOps}

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

  /** Distributed d-CC w.r.t. `layers`: iterative parallel peel. Each round
    * recomputes per-layer degrees among surviving vertices and drops every
    * vertex below degree d on some layer of `layers`. Returns a
    * single-column DataFrame `v` (the d-CC), computed entirely as dataflow.
    */
  def dccDF(spark: SparkSession, edges: DataFrame, layers: Seq[Int], d: Int): DataFrame = {
    require(layers.nonEmpty, "dccDF needs at least one layer")
    if (d <= 0) // degree-0 core: every endpoint on those layers qualifies...
      return symmetric(edges.filter(col("layer").isin(layers: _*)))
        .select(col("src").as("v")).distinct()
    val nLayers = layers.length
    var sym = symmetric(edges.filter(col("layer").isin(layers: _*))).localCheckpoint()
    var verts = sym.select(col("src").as("v")).distinct().localCheckpoint()
    var nVerts = verts.count()
    // every round but the last drops a vertex
    val maxRounds = nVerts + 1
    var rounds = 0L
    var done = nVerts == 0
    while (!done) {
      rounds += 1
      if (rounds > maxRounds) throw new IllegalStateException(
        s"dccDF: no fixpoint after $maxRounds rounds on ${maxRounds - 1} vertices")
      val good = sym
        .groupBy(col("layer"), col("src"))
        .agg(count(lit(1)).as("deg"))
        .filter(col("deg") >= d)
        .groupBy(col("src"))
        .agg(count(lit(1)).as("nl"))
        .filter(col("nl") === nLayers)
        .select(col("src").as("v"))
        .localCheckpoint()
      val nGood = good.count()
      if (nGood == nVerts) done = true
      else {
        verts = good
        nVerts = nGood
        sym = sym
          .join(verts.withColumnRenamed("v", "src"), Seq("src"))
          .join(verts.withColumnRenamed("v", "dst"), Seq("dst"))
          .select(col("layer"), col("src"), col("dst"))
          .localCheckpoint()
        if (nVerts == 0) done = true
      }
    }
    if (nVerts == 0) spark.createDataFrame(
      spark.sparkContext.emptyRDD[Row],
      new org.apache.spark.sql.types.StructType()
        .add("v", org.apache.spark.sql.types.IntegerType))
    else verts
  }

  /** Distributed single-layer d-core. */
  def dCoreDF(spark: SparkSession, edges: DataFrame, layer: Int, d: Int): DataFrame =
    dccDF(spark, edges, Seq(layer), d)

  /** Distributed support numbers Num(v) = #layers whose d-core contains v. */
  def supportNumDF(spark: SparkSession, edges: DataFrame, numLayers: Int, d: Int): DataFrame = {
    val cores = (0 until numLayers).map(i => dCoreDF(spark, edges, i, d))
    cores.reduce(_ union _).groupBy(col("v")).agg(count(lit(1)).cast("int").as("num"))
  }

  /** Distributed vertex-deletion preprocessing (BU-DCCS lines 1-7): drop
    * vertices supported by fewer than s per-layer d-cores, iterate to
    * fixpoint. Returns the surviving edges.
    */
  def vertexDeletionDF(spark: SparkSession, edges0: DataFrame,
                       numLayers: Int, d: Int, s: Int): DataFrame = {
    var edges = edges0.localCheckpoint()
    var nEdges = edges.count()
    // every round but the last drops an edge
    val maxRounds = nEdges + 1
    var rounds = 0L
    var done = false
    while (!done) {
      rounds += 1
      if (rounds > maxRounds) throw new IllegalStateException(
        s"vertexDeletionDF: no fixpoint after $maxRounds rounds on ${maxRounds - 1} edges")
      val keep = supportNumDF(spark, edges, numLayers, d)
        .filter(col("num") >= s).select("v").localCheckpoint()
      val next = edges
        .join(keep.withColumnRenamed("v", "src"), Seq("src"))
        .join(keep.withColumnRenamed("v", "dst"), Seq("dst"))
        .select(col("layer"), col("src"), col("dst"))
        .localCheckpoint()
      val nNext = next.count()
      if (nNext == nEdges) done = true
      edges = next
      nEdges = nNext
    }
    edges
  }

  /** Collect a single-column int DataFrame as a sorted vertex array. */
  def collectVertices(df: DataFrame): Array[Int] =
    df.collect().map(_.getInt(0)).sorted
}
