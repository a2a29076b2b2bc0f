package repro.spark

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core._
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

class SparkGraphSpec extends SparkSpec {

  private lazy val g = TestGraphs.random(1000, 30, 3, 0.18)
  private lazy val edges = SparkGraph.toDF(spark, g).cache()

  test("toDF emits one canonical row per edge per layer") {
    assert(edges.count() == g.totalEdgeCount)
    assert(edges.filter(col("src") >= col("dst")).count() == 0)
  }

  test("toLocal round-trips the graph") {
    val g2 = SparkGraph.toLocal(edges, g.numLayers, g.numVertices)
    for (li <- 0 until g.numLayers; v <- 0 until g.numVertices)
      assert(g2.neighbors(li, v).toSeq == g.neighbors(li, v).toSeq)
  }

  test("degrees match DuckDB oracle") {
    val got = SparkGraph.degrees(edges)
    Oracle.assertEquivalent(got,
      """SELECT layer, v, COUNT(*) AS deg
        |FROM (SELECT layer, src AS v FROM edges
        |      UNION ALL SELECT layer, dst AS v FROM edges)
        |GROUP BY layer, v""".stripMargin,
      "edges" -> edges)
  }

  test("degrees match the local graph") {
    val got = SparkGraph.degrees(edges).collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getInt(2)).toMap
    for (li <- 0 until g.numLayers; v <- 0 until g.numVertices) {
      val deg = g.degree(li, v)
      if (deg > 0) assert(got((li, v)) == deg) else assert(!got.contains((li, v)))
    }
  }

  test("layerStats match DuckDB oracle") {
    Oracle.assertEquivalent(
      SparkGraph.layerStats(edges),
      "SELECT layer, COUNT(*) AS edges FROM edges GROUP BY layer",
      "edges" -> edges)
  }

  test("symmetric doubles the edge rows") {
    assert(SparkGraph.symmetric(edges).count() == 2 * g.totalEdgeCount)
  }

  // --- the joint peel == local vertex deletion -----------------------------
  // a hub-heavy graph next to the uniform one
  private lazy val skewed = TestGraphs.zipf(1003, 50, 3, 500)
  private lazy val skewedEdges = SparkGraph.toDF(spark, skewed).cache()

  /** Spark's vertex deletion against the local one; returns the collected
    * graph. At d ≤ 0 the peel keeps what it keeps at d = 1: the vertices
    * with an edge on at least s layers among themselves. For d ≥ 1 the
    * vertices with an edge are the local survivors A, and the collected
    * graph keeps on layer i exactly the edges inside the local layer core
    * S_i, so its own vertex deletion gives the local A and every S_i.
    */
  private def assertVertexDeletionMatches(g: MLGraph, edges: DataFrame,
                                          d: Int, s: Int): MLGraph = {
    val prunedEdges = SparkGraph.vertexDeletionDF(edges, d, s)
    val survivors = SparkGraph.symmetric(prunedEdges)
      .select(col("src")).distinct().collect().map(_.getInt(0)).sorted
    val dd = math.max(d, 1)
    val st = Preprocess.vertexDeletion(g, dd, s)
    assert(survivors.toSeq == st.active.toSeq, s"d=$d s=$s")
    val h = SparkGraph.toLocal(prunedEdges, g.numLayers, g.numVertices)
    val inCore = st.layerCores.map(_.toSet)
    assert(h.edgeTriples.toSet == g.edgeTriples.filter {
      case (li, u, v) => inCore(li)(u) && inCore(li)(v)
    }.toSet, s"d=$d s=$s")
    val sh = Preprocess.vertexDeletion(h, dd, s)
    assert(sh.active.toSeq == st.active.toSeq, s"d=$d s=$s")
    assert(sh.layerCores.map(_.toSeq).toSeq == st.layerCores.map(_.toSeq).toSeq, s"d=$d s=$s")
    h
  }

  for (d <- 2 to 3; s <- 1 to 3) {
    test(s"vertexDeletionDF(d=$d, s=$s) equals local vertex deletion") {
      for ((lg, le) <- Seq((g, edges), (skewed, skewedEdges)))
        assertVertexDeletionMatches(lg, le, d, s)
    }
  }

  test("vertexDeletionDF on a planted-clique graph keeps the clique") {
    val pg = TestGraphs.withPlantedClique(1001, 40, 3, 0.03, 0 until 8, Seq(0, 1))
    val h = assertVertexDeletionMatches(pg, SparkGraph.toDF(spark, pg), 7, 2)
    assert((0 until 8).forall(v => h.degree(0, v) == 7 && h.degree(1, v) == 7))
  }

  test("vertexDeletionDF returns no edges when the graph empties") {
    assert(SparkGraph.vertexDeletionDF(edges, 20, 1).count() == 0)
    assert(Preprocess.vertexDeletion(g, 20, 1).active.isEmpty)
  }

  test("vertexDeletionDF at s = 1 keeps every layer's whole d-core") {
    val h = SparkGraph.toLocal(SparkGraph.vertexDeletionDF(edges, 2, 1), g.numLayers, g.numVertices)
    for (li <- 0 until g.numLayers)
      assert((0 until g.numVertices).filter(h.degree(li, _) > 0) ==
             NestedDeletion.dCore(g, li, 2).toSeq)
  }

  test("vertexDeletionDF equals local preprocessing") {
    assertVertexDeletionMatches(g, edges, 2, 2)
  }

  test("vertexDeletionDF equals local preprocessing that takes several rounds") {
    val mg = TestGraphs.random(1024, 40, 4, 0.1)
    val (d, s) = (2, 3)
    val st = Preprocess.vertexDeletion(mg, d, s)
    assert(st.rounds >= 2 && st.active.nonEmpty, s"rounds=${st.rounds}")
    assertVertexDeletionMatches(mg, SparkGraph.toDF(spark, mg), d, s)
  }

  // layers 0-2 random, layer 3 empty, 12 isolated vertices before and after
  private lazy val sparse = MLGraph.fromEdges(4, 60,
    TestGraphs.random(1031, 36, 3, 0.12).edgeTriples.map { case (li, u, v) => (li, u + 12, v + 12) })

  test("vertexDeletionDF with an empty layer and isolated vertices, s = 1 to l") {
    val se = SparkGraph.toDF(spark, sparse).cache()
    for (s <- 1 to 4) {
      val h = assertVertexDeletionMatches(sparse, se, 2, s)
      if (s == 4) assert(h.totalEdgeCount == 0) // no vertex reaches the empty layer
    }
  }

  test("vertexDeletionDF at d = 0 keeps the vertices with an edge on at least s layers") {
    for ((lg, s) <- Seq((g, 1), (g, 3), (sparse, 1), (sparse, 2), (sparse, 4))) {
      val h = assertVertexDeletionMatches(lg, SparkGraph.toDF(spark, lg), 0, s)
      val kept = (0 until lg.numVertices).filter(v =>
        (0 until lg.numLayers).exists(h.degree(_, v) > 0))
      assert(kept.forall(v => (0 until lg.numLayers).count(h.degree(_, v) > 0) >= s), s"s=$s")
    }
  }
}
