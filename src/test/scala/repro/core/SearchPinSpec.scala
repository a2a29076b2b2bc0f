package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graphgen.MLSynth

/** BU's and TD's full output under every `Search.Config`, pinned to the
  * values the two searches gave before they shared the [[Search]]
  * skeleton: the layer sets in R's slot order, the cover size, `dccCalls`
  * and `candidatesGenerated` (resource `search-pin.txt`, one line a run).
  * Any change to either search that alters one of them shows here.
  */
class SearchPinSpec extends AnyFunSuite {

  private lazy val pinned: Seq[String] =
    scala.io.Source.fromResource("search-pin.txt").getLines().toList

  private lazy val ppi = MLSynth.preset("ppi").graph

  private val inputs: Seq[(String, () => MLGraph, Int, Int, Int)] = Seq(
    ("ppi", () => ppi, 4, 3, 10),
    ("ppi", () => ppi, 4, 6, 10), // s = l - 2
    ("random(710,40,5,0.15)", () => TestGraphs.random(710, 40, 5, 0.15), 2, 2, 4),
    ("random(711,30,6,0.2)", () => TestGraphs.random(711, 30, 6, 0.2), 2, 4, 6),
  )

  private val bools = Seq(true, false)

  for ((name, graph, d, s, k) <- inputs; algo <- Seq("BU", "TD")) {
    val key = s"$algo $name d=$d s=$s k=$k "
    test(s"$algo output and counters equal the pinned run ($name, d=$d, s=$s, k=$k)") {
      val g = graph()
      val got = for (vd <- bools; sl <- bools; ir <- bools) yield {
        val cfg = Search.Config(vd, sl, ir)
        val o = if (algo == "BU") BottomUpDCCS.run(g, d, s, k, cfg)
                else TopDownDCCS.run(g, d, s, k, cfg)
        val labels = o.result.map(_.layers.mkString(",")).mkString(" ")
        s"${key}vd=$vd sl=$sl ir=$ir | $labels | cover=${o.coverSize} " +
          s"calls=${o.stats.dccCalls} cands=${o.stats.candidatesGenerated}"
      }
      val exp = pinned.filter(_.startsWith(key))
      assert(exp.length == 8)
      assert(got == exp)
    }
  }
}
