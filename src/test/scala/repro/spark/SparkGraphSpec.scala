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

  // --- distributed peeling == local peeling --------------------------------
  // a hub-heavy graph next to the uniform one
  private lazy val skewed = TestGraphs.zipf(1003, 50, 3, 500)
  private lazy val skewedEdges = SparkGraph.toDF(spark, skewed).cache()

  for (d <- 2 to 3; layers <- Seq(Seq(0), Seq(0, 1), Seq(0, 1, 2))) {
    test(s"dccDF(L=${layers.mkString(",")}, d=$d) equals local Dcc") {
      for ((lg, le) <- Seq((g, edges), (skewed, skewedEdges))) {
        val got = SparkGraph.collectVertices(SparkGraph.dccDF(spark, le, layers, d))
        val exp = Dcc.compute(lg, layers.toArray, d)
        assert(got.toSeq == exp.toSeq)
      }
    }
  }

  test("dccDF on a planted-clique graph finds the clique") {
    val pg = TestGraphs.withPlantedClique(1001, 40, 3, 0.03, 0 until 8, Seq(0, 1))
    val pe = SparkGraph.toDF(spark, pg)
    val got = SparkGraph.collectVertices(SparkGraph.dccDF(spark, pe, Seq(0, 1), 7))
    assert(got.toSeq == Dcc.compute(pg, Array(0, 1), 7).toSeq)
    assert((0 until 8).forall(got.contains))
  }

  test("dccDF returns empty when the core is empty") {
    val got = SparkGraph.collectVertices(SparkGraph.dccDF(spark, edges, Seq(0, 1, 2), 20))
    assert(got.isEmpty)
  }

  test("dCoreDF equals local DCore on every layer") {
    for (li <- 0 until g.numLayers) {
      val got = SparkGraph.collectVertices(SparkGraph.dCoreDF(spark, edges, li, 2))
      assert(got.toSeq == DCore.compute(g, li, 2).toSeq)
    }
  }

  test("supportNumDF equals local support numbers") {
    val got = SparkGraph.supportNumDF(spark, edges, g.numLayers, 2).collect()
      .map(r => r.getInt(0) -> r.getInt(1)).toMap
    val num = DCore.supportNum(g.numVertices, DCore.allLayers(g, 2))
    (0 until g.numVertices).foreach { v =>
      assert(got.getOrElse(v, 0) == num(v), s"Num($v) mismatch")
    }
  }

  private def assertVertexDeletionMatches(g: MLGraph, edges: DataFrame,
                                          d: Int, s: Int): Unit = {
    val prunedEdges = SparkGraph.vertexDeletionDF(spark, edges, g.numLayers, d, s)
    val survivors = SparkGraph.symmetric(prunedEdges)
      .select(col("src")).distinct().collect().map(_.getInt(0)).sorted
    val st = Preprocess.vertexDeletion(g, d, s)
    // distributed survivors = local active vertices that still have an edge
    val localWithEdge = st.active.filter { v =>
      val act = st.active.toSet
      (0 until g.numLayers).exists(li => g.neighbors(li, v).exists(act.contains))
    }
    assert(survivors.toSeq == localWithEdge.toSeq)
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
}
