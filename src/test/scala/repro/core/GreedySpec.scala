package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class GreedySpec extends AnyFunSuite {

  for (seed <- 1 to 6) {
    val g = TestGraphs.random(400 + seed, 25, 4, 0.2)
    val (d, s, k) = (2, 2, 3)

    test(s"every returned core is the true d-CC of its label (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      out.result.foreach { c =>
        assert(c.layers.length == s)
        assert(c.vertices.toSeq == Dcc.compute(g, c.layers.toArray, d).toSeq)
      }
    }

    test(s"labels are distinct layer subsets of size s (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      val labels = out.result.map(_.layers)
      assert(labels.distinct.length == labels.length)
    }

    test(s"coverSize equals the union of the returned cores (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      assert(out.coverSize == SetOps.coverSize(out.result.map(_.vertices)))
    }

    test(s"greedy matches a naive greedy over the full candidate set (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      // naive: same candidates, same greedy marginal-gain policy
      var cands = ExactDCCS.candidates(g, d, s)
      var covered = Set.empty[Int]
      var cov = 0
      (1 to k).foreach { _ =>
        if (cands.nonEmpty) {
          val best = cands.maxBy(c => c.vertices.count(v => !covered.contains(v)))
          covered ++= best.vertices
          cands = cands.filterNot(_ eq best)
          cov = covered.size
        }
      }
      assert(out.coverSize == cov)
    }
  }

  test("k greater than the number of candidates returns them all") {
    val g = TestGraphs.random(410, 20, 3, 0.25)
    val out = GreedyDCCS.run(g, 2, 2, 100)
    assert(out.result.length == 3) // C(3,2)
  }

  test("coverSize is monotone in k") {
    val g = TestGraphs.random(411, 30, 4, 0.2)
    val covs = (1 to 6).map(k => GreedyDCCS.run(g, 2, 2, k).coverSize)
    covs.sliding(2).foreach { case Seq(a, b) => assert(a <= b) }
  }

  test("stats count one dcc call per candidate plus preprocessing") {
    val g = TestGraphs.random(412, 25, 4, 0.2)
    val out = GreedyDCCS.run(g, 2, 2, 3)
    assert(out.stats.candidatesGenerated == 6) // C(4,2)
    assert(out.stats.dccCalls >= 6)
  }

  test("achieves the (1 - 1/e) bound vs the exact optimum on tiny instances") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(420 + seed, 16, 4, 0.25)
      val (d, s, k) = (2, 2, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      val got = GreedyDCCS.run(g, d, s, k).coverSize
      assert(got >= math.ceil((1.0 - 1.0 / math.E) * opt).toInt - 1,
        s"seed=$seed: greedy $got vs optimum $opt")
    }
  }

  test("all three algorithms reject k = 0") {
    val g = TestGraphs.random(413, 20, 3, 0.25)
    intercept[IllegalArgumentException](GreedyDCCS.run(g, 2, 2, 0))
    intercept[IllegalArgumentException](BottomUpDCCS.run(g, 2, 2, 0))
    intercept[IllegalArgumentException](TopDownDCCS.run(g, 2, 2, 0))
  }

  test("empty graph yields empty cover") {
    val g = MLGraph.empty(3, 10)
    val out = GreedyDCCS.run(g, 1, 2, 2)
    assert(out.coverSize == 0)
    out.result.foreach(c => assert(c.vertices.isEmpty))
  }
}
