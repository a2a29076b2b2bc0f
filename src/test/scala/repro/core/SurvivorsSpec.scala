package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** The survivor frame: A's local ids, its layer cores (sorted and as
  * bitsets) and G[A], and the map back to the ids of `g` that BU and TD
  * apply to R.
  */
class SurvivorsSpec extends AnyFunSuite {

  private val bools = Seq(true, false)
  private val configs =
    for (vd <- bools; sl <- bools; ir <- bools) yield Search.Config(vd, sl, ir)

  test("local layer cores map back to the cores of g; graph is g or G[A]") {
    var same, smaller = 0
    for (seed <- 1 to 6; d <- 0 to 3; s <- 1 to 4; enabled <- bools) {
      val g = TestGraphs.shifted(TestGraphs.random(1100 + seed, 30, 4, 0.15), seed % 3 * 7)
      val pre = Preprocess.vertexDeletion(g, d, s, enabled)
      val a = new Preprocess.Survivors(g, pre)
      val clue = s"seed=$seed d=$d s=$s enabled=$enabled"
      assert(a.ids sameElements pre.active, clue)
      assert(a.words == (a.ids.length + 63) >>> 6, clue)
      a.layerCores.indices.foreach { i =>
        assert(a.layerCores(i).map(a.ids).toSeq == pre.layerCores(i).toSeq, s"$clue layer=$i")
        assert(Bits.decode(a.coreBits(i)).toSeq == a.layerCores(i).toSeq, s"$clue layer=$i")
      }
      if (pre.active.length == g.numVertices) {
        same += 1
        assert(a.graph eq g, clue)
      } else {
        smaller += 1
        val sub = g.induced(pre.active)._1
        assert(a.graph.numLayers == sub.numLayers && a.graph.numVertices == sub.numVertices, clue)
        assert(a.graph.edgeTriples.toSeq == sub.edgeTriples.toSeq, clue)
      }
    }
    assert(same > 0 && smaller > 0)
  }

  test("an empty survivor set gives empty local cores, and BU and TD return empty cores") {
    val g = TestGraphs.random(202, 20, 4, 0.03)
    val a = new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, 5, 4))
    assert(a.ids.isEmpty && a.graph.numVertices == 0)
    assert(a.layerCores.length == 4 && a.layerCores.forall(_.isEmpty))
    for (algo <- Seq(Algo.BU, Algo.TD); s <- 2 to 4; cfg <- configs.filter(_.vertexDeletion)) {
      val out = algo.run(g, 5, s, 3, cfg)
      assert(out.result.nonEmpty && out.result.forall(_.vertices.isEmpty), s"${algo.name} s=$s $cfg")
      assert(out.coverSize == 0)
    }
  }

  test("BU and TD on graphs padded with isolated low ids equal the unpadded answer with ids shifted") {
    // Under vertex deletion the padding goes in round 1, so every survivor's
    // local id differs from its id in the padded graph. Where round 1 of the
    // unpadded graph deletes nothing, the padded one takes one more round,
    // whose l layer cores `dccCalls` counts: compare the search's own calls.
    val by = 23
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(1200 + seed, 36, 5, 0.16)
      val h = TestGraphs.shifted(g, by)
      for (d <- 1 to 3; s <- 1 to 5; k <- Seq(1, 4, 12); cfg <- configs; algo <- Seq(Algo.BU, Algo.TD)) {
        def answer(g: MLGraph) = {
          val out = algo.run(g, d, s, k, cfg)
          val prep = g.numLayers * Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion).rounds
          (out.result.map(c => (c.layers, c.vertices.toSeq)), out.coverSize,
           out.stats.dccCalls - prep, out.stats.candidatesGenerated)
        }
        val (cores, cover, calls, cands) = answer(g)
        assert(answer(h) == ((cores.map { case (ls, vs) => (ls, vs.map(_ + by)) }, cover, calls, cands)),
          s"${algo.name} seed=$seed d=$d s=$s k=$k $cfg")
      }
    }
  }
}
