package repro.expts

import org.scalatest.funsuite.AnyFunSuite

class HarnessSpec extends AnyFunSuite {

  test("table rendering aligns columns") {
    val s = Tables.render("t", Seq("a", "bbb"), Seq(Seq("xx", "y"), Seq("1", "22")))
    val lines = s.linesIterator.toSeq.filter(_.nonEmpty)
    assert(lines.head.contains("=== t ==="))
    assert(lines(1).startsWith("a "))
    assert(lines.drop(2).forall(_.length <= lines(1).length + 2))
  }

  test("fmtMs renders seconds with millisecond precision") {
    assert(Tables.fmtMs(1234) == "1.234")
    assert(Tables.fmtMs(0) == "0.000")
  }

  test("dataset cache returns the same instance") {
    assert(Experiments.dataset("ppi") eq Experiments.dataset("ppi"))
  }

  test("datasetStats reports the ppi preset dimensions") {
    val (header, rows) = Experiments.datasetStats(Seq("ppi"))
    assert(header.head == "graph")
    val row = rows.head
    assert(row(0) == "ppi" && row(1) == "330" && row(4) == "8")
  }

  test("sweepS produces one run per (s, algo)") {
    val runs = Experiments.sweepS("ppi", Seq(2, 3), Seq("GD", "BU"), d = 3, k = 5)
    assert(runs.length == 4)
    assert(runs.map(r => (r.s, r.algo)).toSet ==
      Set((2, "GD"), (2, "BU"), (3, "GD"), (3, "BU")))
    runs.foreach(r => assert(r.coverSize >= 0 && r.dccCalls > 0))
  }

  test("mimagCompare yields consistent metrics on ppi") {
    val cmp = Experiments.mimagCompare("ppi", d = 3)
    assert(cmp.precision >= 0 && cmp.precision <= 1)
    assert(cmp.recall >= 0 && cmp.recall <= 1)
    assert(cmp.f1 >= 0 && cmp.f1 <= 1)
    assert(cmp.buSize > 0)
    assert(cmp.mimagProportion >= 0 && cmp.mimagProportion <= 1)
    assert(cmp.buProportion >= 0 && cmp.buProportion <= 1)
  }

  test("qcDistribution rows sum to ~1 for non-empty buckets") {
    val cmp = Experiments.mimagCompare("ppi", d = 2)
    val dist = Experiments.qcDistribution(cmp, Seq(3, 4, 5))
    dist.foreach { case (sz, ps) =>
      assert(ps.length == sz + 1)
      val sum = ps.sum
      assert(sum == 0.0 || math.abs(sum - 1.0) < 1e-9)
    }
  }

  test("ablation covers all five variants") {
    val abl = Experiments.ablation("ppi", "BU", s = 3)
    assert(abl.map(_.variant) == Seq("Full", "No-VD", "No-SL", "No-IR", "No-Pre"))
    abl.foreach(a => assert(a.cover >= 0))
  }

  test("ablation rejects algorithms other than BU and TD") {
    intercept[IllegalArgumentException](Experiments.ablation("ppi", "GD", s = 3))
    intercept[IllegalArgumentException](Experiments.ablation("ppi", "bu", s = 3))
  }

  test("runAlgo rejects unknown algorithms") {
    intercept[RuntimeException](
      Experiments.runAlgo("XX", "ppi", Experiments.dataset("ppi").graph, 2, 2, 2))
  }
}
