package repro.expts

/** Formats each table of the evaluation section from [[Experiments]] runs.
  * Shared by the bench suites (bench/) and the spark-submit jobs (jobs/).
  */
object Report {

  private def timeHeader = Seq("dataset", "param", "algo", "time(s)", "dccCalls", "candidates", "cover")

  private def runRows(param: String, runs: Seq[Run], value: Run => String): Seq[Seq[String]] =
    runs.map(r => Seq(r.dataset, s"$param=${value(r)}", r.algo, Tables.fmtMs(r.millis),
                      r.dccCalls.toString, r.candidates.toString, r.coverSize.toString))

  // T1 (Fig. 12)
  def datasetStats(names: Seq[String]): String = {
    val (h, rows) = Experiments.datasetStats(names)
    Tables.render("T1 / Fig.12 — dataset statistics (synthetic stand-ins, see DESIGN.md §4)", h, rows)
  }

  // T2/T3 (Figs. 14/15)
  def execTimeVsS(title: String, runs: Seq[Run]): String =
    Tables.render(title, timeHeader, runRows("s", runs, _.s.toString))

  // T4 (Figs. 16/17)
  def coverVsS(title: String, runs: Seq[Run]): String =
    Tables.render(title, Seq("dataset", "s", "algo", "cover", "time(s)"),
      runs.map(r => Seq(r.dataset, r.s.toString, r.algo, r.coverSize.toString, Tables.fmtMs(r.millis))))

  // T5/T6 (Figs. 18-21)
  def effectOfD(title: String, runs: Seq[Run]): String =
    Tables.render(title, timeHeader, runRows("d", runs, _.d.toString))

  // T7/T8 (Figs. 22-25)
  def effectOfK(title: String, runs: Seq[Run]): String =
    Tables.render(title, timeHeader, runRows("k", runs, _.k.toString))

  // T9/T10 (Figs. 26/27)
  def scalability(title: String, param: String, runs: Seq[(Double, Run)]): String =
    Tables.render(title, Seq("dataset", param, "algo", "time(s)", "dccCalls", "cover"),
      runs.map { case (v, r) =>
        Seq(r.dataset, v.toString, r.algo, Tables.fmtMs(r.millis),
            r.dccCalls.toString, r.coverSize.toString)
      })

  // T11 (Fig. 28)
  def ablation(title: String, rows: Seq[Experiments.Ablation]): String =
    Tables.render(title, Seq("variant", "time(s)", "dccCalls", "prepCalls", "cover"),
      rows.map(a => Seq(a.variant, Tables.fmtMs(a.millis), a.dccCalls.toString,
                        a.prepCalls.toString, a.cover.toString)))

  // T12 (Fig. 29)
  def mimagCompare(cmps: Seq[Experiments.Comparison]): String =
    Tables.render("T12 / Fig.29 — MiMAG vs BU-DCCS (gamma=0.8, s=l/2, k=10, d'=d+1)",
      Seq("graph", "d", "algorithm", "time(s)", "size", "precision", "recall", "F1", "proportion"),
      cmps.flatMap { c =>
        Seq(
          Seq(c.dataset, c.d.toString, "MiMAG", Tables.fmtMs(c.mimagMillis), c.mimagSize.toString,
              f"${c.precision}%.3f", f"${c.recall}%.3f", f"${c.f1}%.3f", f"${c.mimagProportion}%.3f"),
          Seq(c.dataset, c.d.toString, "BU-DCCS", Tables.fmtMs(c.buMillis), c.buSize.toString,
              "", "", "", f"${c.buProportion}%.3f"),
        )
      })

  // T13 (Fig. 30)
  def qcDistribution(name: String, dist: Seq[(Int, Seq[Double])]): String =
    Tables.render(s"T13 / Fig.30 — distribution of |Q ∩ Cov(R_C)| on $name",
      Seq("|Q|") ++ (0 to dist.map(_._1).max).map(_.toString),
      dist.map { case (sz, ps) =>
        Seq(sz.toString) ++ ps.map(p => f"$p%.4f") ++ Seq.fill(dist.map(_._1).max - sz)("-")
      })
}
