package repro.expts

import repro.core._
import repro.graphgen.MLSynth
import repro.mimag.MiMAG

/** Plain-text table rendering for experiment output. */
object Tables {
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sb = new StringBuilder
    sb ++= s"\n=== $title ===\n"
    sb ++= line(header) += '\n'
    sb ++= widths.map("-" * _).mkString("  ") += '\n'
    rows.foreach(r => sb ++= line(r) += '\n')
    sb.result()
  }

  def fmtMs(ms: Long): String = f"${ms / 1000.0}%.3f"
}

/** One algorithm execution with its measurements. */
final case class Run(algo: String, dataset: String, d: Int, s: Int, k: Int,
                     millis: Long, dccCalls: Int, candidates: Int,
                     coverSize: Int, result: Vector[Core])

/** Shared experiment runners — one method per evaluation table (see
  * DESIGN.md §5). Benches and spark-submit jobs both call into here.
  */
object Experiments {

  private val cache = scala.collection.mutable.HashMap.empty[String, MLSynth.Generated]

  /** Generated preset, cached per process. */
  def dataset(name: String): MLSynth.Generated =
    synchronized { cache.getOrElseUpdate(name, MLSynth.preset(name)) }

  def runAlgo(algo: String, name: String, g: MLGraph, d: Int, s: Int, k: Int): Run = {
    val out = Algo(algo).run(g, d, s, k)
    Run(algo, name, d, s, k, out.stats.totalMillis, out.stats.dccCalls,
        out.stats.candidatesGenerated, out.coverSize, out.result)
  }

  // Defaults from Fig. 13.
  val DefaultK = 10
  val DefaultD = 4
  val DefaultSmallS = 3
  def defaultLargeS(l: Int): Int = l - 2

  // ---- T1 (Fig. 12): dataset statistics ---------------------------------
  def datasetStats(names: Seq[String]): (Seq[String], Seq[Seq[String]]) = {
    val header = Seq("graph", "|V|", "sum|E_i|", "|union E_i|", "l", "communities", "complexes")
    val rows = names.map { n =>
      val gen = dataset(n)
      Seq(n, gen.graph.numVertices.toString, gen.graph.totalEdgeCount.toString,
          gen.graph.unionEdgeCount.toString, gen.graph.numLayers.toString,
          gen.communities.length.toString, gen.complexes.length.toString)
    }
    (header, rows)
  }

  // ---- T2/T3 (Figs. 14/15) + T4 (Figs. 16/17): time & cover vs s --------
  def sweepS(name: String, sValues: Seq[Int], algos: Seq[String],
             d: Int = DefaultD, k: Int = DefaultK): Seq[Run] = {
    val g = dataset(name).graph
    for (s <- sValues; a <- algos) yield runAlgo(a, name, g, d, s, k)
  }

  // ---- T5/T6 (Figs. 18-21): effect of d ---------------------------------
  def sweepD(name: String, dValues: Seq[Int], algos: Seq[String], s: Int,
             k: Int = DefaultK): Seq[Run] = {
    val g = dataset(name).graph
    for (d <- dValues; a <- algos) yield runAlgo(a, name, g, d, s, k)
  }

  // ---- T7/T8 (Figs. 22-25): effect of k ---------------------------------
  def sweepK(name: String, kValues: Seq[Int], algos: Seq[String], s: Int,
             d: Int = DefaultD): Seq[Run] = {
    val g = dataset(name).graph
    for (k <- kValues; a <- algos) yield runAlgo(a, name, g, d, s, k)
  }

  // ---- T9/T10 (Figs. 26/27): scalability in p and q ----------------------
  def sweepP(name: String, pValues: Seq[Double], algos: Seq[String],
             sOf: Int => Int, d: Int = DefaultD, k: Int = DefaultK): Seq[(Double, Run)] = {
    val gen = dataset(name)
    for (p <- pValues; a <- algos) yield {
      val g = MLSynth.subsampleVertices(gen, p)
      (p, runAlgo(a, s"$name(p=$p)", g, d, sOf(g.numLayers), k))
    }
  }

  def sweepQ(name: String, qValues: Seq[Double], algos: Seq[String],
             sOf: Int => Int, d: Int = DefaultD, k: Int = DefaultK): Seq[(Double, Run)] = {
    val gen = dataset(name)
    for (q <- qValues; a <- algos) yield {
      val g = MLSynth.subsampleLayers(gen, q)
      (q, runAlgo(a, s"$name(q=$q)", g, d, sOf(g.numLayers), k))
    }
  }

  // ---- T11 (Fig. 28): preprocessing ablation -----------------------------
  /** @param prepCalls the preprocessing peels in `dccCalls`: l per
    *                  vertex-deletion round; `dccCalls − prepCalls` are the
    *                  search's own
    */
  final case class Ablation(variant: String, millis: Long, dccCalls: Int,
                            prepCalls: Int, cover: Int)

  /** The five Fig. 28 variants of BU or TD (`Algo.run` rejects GD's). */
  def ablation(name: String, algo: String, s: Int,
               d: Int = DefaultD, k: Int = DefaultK): Seq[Ablation] = {
    val search = Algo(algo)
    val g = dataset(name).graph
    val variants = Seq(
      ("Full",   Search.Config()),
      ("No-VD",  Search.Config(vertexDeletion = false)),
      ("No-SL",  Search.Config(sortLayers = false)),
      ("No-IR",  Search.Config(initTopK = false)),
      ("No-Pre", Search.Config(false, false, false)),
    )
    variants.map { case (label, cfg) =>
      val out = search.run(g, d, s, k, cfg)
      val prep = g.numLayers * Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion).rounds
      Ablation(label, out.stats.totalMillis, out.stats.dccCalls, prep, out.coverSize)
    }
  }

  // ---- T12 (Fig. 29): MiMAG vs BU-DCCS -----------------------------------
  final case class Comparison(dataset: String, d: Int,
                              mimagMillis: Long, buMillis: Long,
                              mimagSize: Int, buSize: Int,
                              precision: Double, recall: Double, f1: Double,
                              mimagProportion: Double, buProportion: Double,
                              qcClusters: Vector[MiMAG.Cluster],
                              buCover: Array[Int])

  def mimagCompare(name: String, d: Int, k: Int = DefaultK): Comparison = {
    val gen = dataset(name)
    val l = gen.graph.numLayers
    val s = l / 2
    val mimag = MiMAG.run(gen.graph,
      MiMAG.Config(gamma = 0.8, minSize = d + 1, minSupport = s))
    val bu = BottomUpDCCS.run(gen.graph, d, s, k)

    val covQ = SetOps.coverSize(mimag.clusters.map(_.vertices))
    val covC = bu.coverSize
    val qSet = new java.util.BitSet(); mimag.clusters.foreach(_.vertices.foreach(qSet.set))
    val cSet = new java.util.BitSet(); bu.result.foreach(_.vertices.foreach(cSet.set))
    val both = { val b = qSet.clone().asInstanceOf[java.util.BitSet]; b.and(cSet); b.cardinality() }
    val precision = if (covC == 0) 0.0 else both.toDouble / covC
    val recall = if (covQ == 0) 0.0 else both.toDouble / covQ
    val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)

    def proportion(subgraphs: Seq[Array[Int]]): Double = {
      if (gen.complexes.isEmpty) return 0.0
      val hit = gen.complexes.count(cx =>
        subgraphs.exists(sg => SetOps.subsetOf(cx.vertices, sg)))
      hit.toDouble / gen.complexes.length
    }
    val buCoverArr = Iterator.iterate(cSet.nextSetBit(0))(i => cSet.nextSetBit(i + 1))
      .takeWhile(_ >= 0).toArray

    Comparison(name, d, mimag.millis, bu.stats.totalMillis,
      covQ, covC, precision, recall, f1,
      proportion(mimag.clusters.map(_.vertices)),
      proportion(bu.result.map(_.vertices)),
      mimag.clusters, buCoverArr)
  }

  // ---- T13 (Fig. 30): |Q ∩ Cov(R_C)| distribution -------------------------
  /** For each |Q| bucket, the fraction of MiMAG clusters of that size whose
    * intersection with Cov(R_C) has each possible cardinality 0..|Q|.
    */
  def qcDistribution(cmp: Comparison, sizes: Seq[Int]): Seq[(Int, Seq[Double])] = {
    val cov = new java.util.BitSet(); cmp.buCover.foreach(cov.set)
    sizes.map { sz =>
      val qs = cmp.qcClusters.filter(_.vertices.length == sz)
      val dist = Array.fill(sz + 1)(0.0)
      qs.foreach { q => dist(q.vertices.count(cov.get)) += 1 }
      val total = qs.length.toDouble
      (sz, dist.toSeq.map(c => if (total == 0) 0.0 else c / total))
    }
  }
}
