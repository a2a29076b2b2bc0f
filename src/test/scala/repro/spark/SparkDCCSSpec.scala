package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.core._
import repro.graphgen.MLSynth

class SparkDCCSSpec extends SparkSpec {

  private lazy val g = TestGraphs.random(1100, 35, 4, 0.15)
  private lazy val edges = SparkGraph.toDF(spark, g).cache()

  // The default parameters plus the edge cases d = 0 (every vertex in every
  // core locally; Spark's vertex deletion drops the vertices with an edge on
  // fewer than s layers among the others), s = 1, s = l and k > C(l, s).
  private def params(d: Int, s: Int, k: Int): Seq[(Int, Int, Int)] =
    Seq((d, s, k), (2, 2, 3), (0, 2, 3), (1, 1, 3), (1, g.numLayers, 3), (2, 3, 10)).distinct

  // the graph SparkDCCS.run searches, once per (d, s)
  private val collected = scala.collection.mutable.Map.empty[(Int, Int), MLGraph]
  private def collectedGraph(d: Int, s: Int): MLGraph =
    collected.getOrElseUpdate((d, s),
      SparkGraph.toLocal(SparkGraph.vertexDeletionDF(edges, d, s), g.numLayers, g.numVertices))

  // Equal answers, and equal search counters once each engine's l dCC calls
  // per local vertex-deletion round are taken out.
  private def engineAgreement(algo: Algo, d: Int, s: Int, k: Int): Unit =
    for ((d, s, k) <- params(d, s, k)) {
      val sp = SparkDCCS.run(edges, g.numLayers, g.numVertices, algo, d, s, k)
      val lo = algo.run(g, d, s, k)
      assert(sp.result.map(c => (c.layers, c.vertices.toSeq)) ==
             lo.result.map(c => (c.layers, c.vertices.toSeq)), s"d=$d s=$s k=$k")
      assert(sp.coverSize == lo.coverSize, s"d=$d s=$s k=$k")
      def searchCalls(out: GreedyDCCS.Output, on: MLGraph): Int =
        out.stats.dccCalls - g.numLayers * Preprocess.vertexDeletion(on, d, s).rounds
      assert(searchCalls(sp, collectedGraph(d, s)) == searchCalls(lo, g), s"d=$d s=$s k=$k")
      assert(sp.stats.candidatesGenerated == lo.stats.candidatesGenerated, s"d=$d s=$s k=$k")
    }

  test("distributed-preprocessed GD matches local GD exactly") {
    engineAgreement(Algo.GD, 2, 2, 3)
  }

  test("distributed-preprocessed BU matches local BU exactly") {
    engineAgreement(Algo.BU, 2, 2, 3)
  }

  test("distributed-preprocessed TD matches local TD exactly") {
    engineAgreement(Algo.TD, 2, 3, 3)
  }

  test("end-to-end on the ppi preset: distributed BU equals local BU") {
    val gen = MLSynth.preset("ppi")
    val pe = SparkGraph.toDF(spark, gen.graph)
    val l = gen.graph.numLayers
    val sp = SparkDCCS.run(pe, l, gen.graph.numVertices, Algo.BU, 4, 3, 10)
    val lo = BottomUpDCCS.run(gen.graph, 4, 3, 10)
    assert(sp.coverSize == lo.coverSize)
    assert(sp.result.map(_.layers).toSet == lo.result.map(_.layers).toSet)
    // covers at least one whole planted persistent community
    val cov = sp.result.flatMap(_.vertices).toSet
    assert(gen.communities.take(2).exists(c => c.vertices.forall(cov.contains)))
  }
}
