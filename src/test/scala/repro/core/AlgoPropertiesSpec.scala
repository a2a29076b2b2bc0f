package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Cross-algorithm invariants on random instances. */
class AlgoPropertiesSpec extends AnyFunSuite {

  test("exact optimum is monotone non-increasing in s") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(700 + seed, 16, 4, 0.25)
      val opts = (1 to 4).map(s => ExactDCCS.optimum(g, 2, s, 2))
      opts.sliding(2).foreach { case Seq(a, b) => assert(b <= a) }
    }
  }

  test("exact optimum is monotone non-increasing in d") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(710 + seed, 16, 4, 0.25)
      val opts = (1 to 4).map(d => ExactDCCS.optimum(g, d, 2, 2))
      opts.sliding(2).foreach { case Seq(a, b) => assert(b <= a) }
    }
  }

  test("exact optimum is monotone non-decreasing in k") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(720 + seed, 16, 4, 0.25)
      val opts = (1 to 4).map(k => ExactDCCS.optimum(g, 2, 2, k))
      opts.sliding(2).foreach { case Seq(a, b) => assert(b >= a) }
    }
  }

  test("all three algorithms respect their approximation bounds") {
    for (seed <- 1 to 6) {
      val g = TestGraphs.random(730 + seed, 15, 4, 0.3)
      val (d, s, k) = (2, 2, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      val gd = GreedyDCCS.run(g, d, s, k).coverSize
      val bu = BottomUpDCCS.run(g, d, s, k).coverSize
      val td = TopDownDCCS.run(g, d, s, k).coverSize
      assert(gd >= math.ceil((1 - 1 / math.E) * opt).toInt - 1, s"seed=$seed GD")
      assert(4 * bu >= opt, s"seed=$seed BU")
      assert(4 * td >= opt, s"seed=$seed TD")
      // nothing can beat the optimum
      assert(gd <= opt && bu <= opt && td <= opt)
    }
  }

  test("cover sizes never exceed the number of vertices with Num(v) >= s") {
    for (seed <- 1 to 4) {
      val g = TestGraphs.random(740 + seed, 25, 4, 0.2)
      val (d, s, k) = (2, 2, 5)
      val pre = Preprocess.vertexDeletion(g, d, s)
      val bound = pre.active.length
      assert(GreedyDCCS.run(g, d, s, k).coverSize <= bound)
      assert(BottomUpDCCS.run(g, d, s, k).coverSize <= bound)
      assert(TopDownDCCS.run(g, d, s, k).coverSize <= bound)
    }
  }

  test("planted multi-layer cliques are fully covered by every algorithm") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.withPlantedClique(750 + seed, 36, 4, 0.04, 0 until 10, Seq(0, 1, 2))
      val (d, s, k) = (3, 2, 4)
      val clique = (0 until 10).toSet
      Seq(GreedyDCCS.run(g, d, s, k).result,
          BottomUpDCCS.run(g, d, s, k).result,
          TopDownDCCS.run(g, d, s, k).result).foreach { res =>
        val cov = res.flatMap(_.vertices).toSet
        assert(clique.subsetOf(cov), s"seed=$seed missed the planted clique")
      }
    }
  }

  test("stats counters are populated") {
    val g = TestGraphs.random(760, 25, 4, 0.2)
    Seq(GreedyDCCS.run(g, 2, 2, 3).stats,
        BottomUpDCCS.run(g, 2, 2, 3).stats,
        TopDownDCCS.run(g, 2, 3, 3).stats).foreach { st =>
      assert(st.dccCalls > 0)
      assert(st.totalMillis >= 0)
    }
  }

  // InitTopK can pick one layer set in several of its k rounds, and the
  // search can generate it again; R must still hold each layer set once.
  test("BU and TD never return a layer set twice (s = l-1, k >= l)") {
    for (seed <- 1 to 5; k <- Seq(4, 6)) {
      val g = TestGraphs.random(770 + seed, 25, 4, 0.25)
      Seq("BU" -> BottomUpDCCS.run(g, 2, 3, k),
          "TD" -> TopDownDCCS.run(g, 2, 3, k)).foreach { case (name, out) =>
        val labels = out.result.map(_.layers)
        assert(labels.distinct.length == labels.length,
          s"$name seed=$seed k=$k returned ${labels.mkString(" ")}")
        assert(out.coverSize == SetOps.coverSize(out.result.map(_.vertices)))
      }
    }
  }
}
