package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.core._
import repro.graphgen.MLSynth
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One executed query: its id, parameters, graph and answer. */
final case class Outcome(id: Int, q: QuerySpec, graphId: Int, g: MLGraph,
                         out: GreedyDCCS.Output, span: Span, ingest: Option[Span])

/** Answer checks, run outside the timed region.
  *
  * The first answer to a query (same graph, same parameters) is checked in
  * full: at most min(k, C(l,s)) cores, distinct layer sets of size s, each
  * core equal to `Dcc.compute` for its layer set, and the reported cover
  * equal to the union of the cores. Every later answer to the same query
  * must be identical to the first, and fails the same way if that did.
  */
final class Checker(w: Workload) {
  private type Answer = (Int, Vector[(Vector[Int], Seq[Int])])
  private val answers = mutable.HashMap.empty[(Int, Int), (Answer, List[String])]
  private val peeled = mutable.HashMap.empty[(Int, Vector[Int], Int), Seq[Int]]
  val problems = mutable.ArrayBuffer.empty[String]

  def check(o: Outcome): Boolean = {
    val key = (o.graphId, o.id % w.params.length)
    val answer: Answer = (o.out.coverSize, o.out.result.map(c => c.layers -> c.vertices.toSeq))
    val errors = answers.get(key) match {
      case Some((first, firstErrors)) =>
        if (first == answer) firstErrors
        else List("answer differs from an earlier run of the same query")
      case None =>
        val errs = fullCheck(o)
        answers(key) = (answer, errs)
        errs
    }
    errors.foreach(e => problems += s"query ${o.id} ${o.q} on graph ${o.graphId}: $e")
    errors.isEmpty
  }

  private def fullCheck(o: Outcome): List[String] = {
    val l = o.g.numLayers
    val cores = o.out.result
    val errs = mutable.ListBuffer.empty[String]
    val limit = math.min(o.q.k.toLong, o.q.layerSets(l))
    if (cores.length > limit) errs += s"${cores.length} cores returned, limit $limit"
    if (cores.map(_.layers).distinct.length != cores.length) errs += "a layer set appears twice"
    cores.foreach { c =>
      val ls = c.layers
      if (ls.length != o.q.s || ls.exists(x => x < 0 || x >= l) ||
          ls.zip(ls.drop(1)).exists { case (a, b) => a >= b })
        errs += s"bad layer set ${ls.mkString(",")}"
      else {
        val want = peeled.getOrElseUpdate((o.graphId, ls, o.q.d),
          Dcc.compute(o.g, ls.toArray, o.q.d).toSeq)
        if (c.vertices.toSeq != want) errs += s"core on layers ${ls.mkString(",")} is not their d-CC"
      }
    }
    val cover = SetOps.coverSize(cores.map(_.vertices))
    if (cover != o.out.coverSize) errs += s"cover ${o.out.coverSize} reported, $cover found"
    errs.toList
  }
}

/** One run of a workload: set-up, warm-up, the timed closed loop, and a
  * verification pass that repeats the first pass (replayed layer by layer
  * when tracing).
  */
final class Bench(w: Workload, seed: Long, seconds: Double, tracer: Tracer) {
  private val SetupRepeats = 5
  private val WarmupSeconds = 2.0

  val checker = new Checker(w)
  var attempted = 0
  var failed = 0
  val setupTimes = mutable.ArrayBuffer.empty[Double]
  val buildSpans = mutable.ArrayBuffer.empty[Span]
  val timed = mutable.ArrayBuffer.empty[Span]
  val timedIngest = mutable.ArrayBuffer.empty[Span]
  var passCover = 0L
  var retainedHeapBytes = 0L
  var gcSeconds = 0.0
  var gcCount = 0L
  val layers = new LayerStats

  private def generate(j: Int): Array[(Int, Int, Int)] =
    MLSynth.generate(w.spec(seed, j)).graph.edgeTriples.toArray

  // Inputs of the first pass stay in memory; later fresh graphs are made
  // when their query comes up, off the clock.
  private val passEdges = Array.tabulate(w.graphs)(generate)
  def firstGraphEdges: Long = passEdges(0).length
  private var graphs: Array[MLGraph] = Array.empty

  private def build(edges: Array[(Int, Int, Int)], query: Int, parent: Int): (MLGraph, Span) =
    tracer.span("mlgraph.fromEdges", query, parent) { _ =>
      MLGraph.fromEdges(w.shape.l, w.shape.n, edges)
    }

  private def buildAll(): Unit =
    graphs = passEdges.map { e =>
      val (g, sp) = build(e, -1, -1)
      buildSpans += sp
      g
    }

  private def execute(i: Int): Outcome = {
    val q = w.paramsOf(i)
    val j = w.graphOf(i)
    val edges = if (!w.fresh) null else if (j < passEdges.length) passEdges(j) else generate(j)
    // The generator's garbage is not the query's: collect it off the clock.
    if (w.fresh) fullGc()
    var ingest: Option[Span] = None
    val ((g, out), sp) = tracer.span(s"query.${q.algo}", i) { id =>
      val g =
        if (!w.fresh) graphs(j)
        else { val (g, s) = build(edges, i, id); ingest = Some(s); g }
      (g, q.run(g))
    }
    Outcome(i, q, j, g, out, sp, ingest)
  }

  /** Runs query `i` and checks its answer; None if it threw or failed. */
  private def attempt(i: Int): Option[Outcome] = {
    attempted += 1
    val o =
      try Some(execute(i))
      catch {
        case NonFatal(e) =>
          checker.problems += s"query $i ${w.paramsOf(i)} threw $e"
          None
      }
    if (!o.exists(checker.check)) failed += 1
    o
  }

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  private def fullGc(): Unit = { System.gc(); System.gc() }

  def run(): Unit = {
    (0 until SetupRepeats).foreach { _ =>
      val t0 = System.nanoTime()
      buildAll()
      setupTimes += (System.nanoTime() - t0) / 1e9
    }
    if (w.fresh) graphs = Array.empty // fresh queries ingest their own graph

    var i = 0
    val warm0 = System.nanoTime()
    while (i < w.passLength || (System.nanoTime() - warm0) / 1e9 < WarmupSeconds) {
      attempt(i).foreach(o => if (i < w.passLength) passCover += o.out.coverSize)
      i += 1
    }

    // The timed phase: queries are started for `seconds` of wall time (and
    // until one round of the parameter sets has run); making fresh inputs
    // and checking answers fall between the clocks.
    fullGc()
    val (gcMs0, gcN0) = gcTotals()
    val rounds = w.params.length
    val start = i
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < end || i - start < rounds) {
      // Keep only the spans: a timed fresh graph must not stay reachable.
      attempt(i).foreach { o => timed += o.span; timedIngest ++= o.ingest }
      i += 1
    }
    // Latencies differ by parameter set (GD's selection grows with k): the
    // median is taken over whole rounds, so each set weighs the same.
    timed.dropRightInPlace((i - start) % rounds)
    val (gcMs1, gcN1) = gcTotals()
    gcSeconds = (gcMs1 - gcMs0) / 1e3
    gcCount = gcN1 - gcN0
    fullGc()
    retainedHeapBytes = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

    (0 until w.passLength).foreach { p =>
      attempt(p).foreach { o =>
        layers.queries += 1
        layers.queryNs += o.span.endNs - o.span.startNs
        layers.queryAlloc += o.span.allocBytes
        o.ingest.foreach { s => layers.ingestNs += s.endNs - s.startNs; layers.ingestAlloc += s.allocBytes }
        layers.searchDccCalls += o.out.stats.dccCalls
        layers.searchCandidates += o.out.stats.candidatesGenerated
        layers.searchSpace += o.q.layerSets(o.g.numLayers)
        if (tracer.enabled) Replay(tracer, layers, o.g, o.q, o.id, o.span.id, o.out)
      }
    }
  }
}

/** Closed-loop DCCS query benchmark; see perfbench/README.md.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  *             [--commit SHA] [--source-hash SHA]
  */
object Main {

  final case class Metric(name: String, value: Double, unit: String, note: String = "")

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
  private def ratio(a: Long, b: Long): Double = ratio(a.toDouble, b.toDouble)
  private val MB = 1024.0 * 1024.0

  def endToEnd(b: Bench): Seq[Metric] = {
    val lat = b.timed.map(_.seconds).toSeq
    Seq(
      Metric("setup_s", median(b.setupTimes.toSeq), "s", s"median of ${b.setupTimes.length} set-ups"),
      Metric("query_s_p50", median(lat), "s", f"median of ${lat.length} timed queries, ${lat.sum}%.3f s in all"),
      Metric("cover_vertices", b.passCover.toDouble, "count", "total cover over the first pass"),
      Metric("retained_heap_mb", b.retainedHeapBytes / MB, "MB", "heap in use after a full GC at the end of the timed phase"),
    )
  }

  def perLayer(b: Bench): Seq[Metric] = {
    val st = b.layers
    val s = (ns: Long) => ns / 1e9
    val lat = b.timed.map(_.seconds).toSeq
    val builds = (b.buildSpans ++ b.timedIngest).toSeq
    val searchNs = st.queryNs - st.ingestNs - st.preprocessNs
    val searchAlloc = st.queryAlloc - st.ingestAlloc - st.preprocessAlloc
    Seq(
      Metric("mlgraph.build_s", median(builds.map(_.seconds)), "s", s"median of ${builds.length} builds"),
      Metric("mlgraph.build_alloc_mb", median(builds.map(_.allocBytes / MB)), "MB"),
      Metric("mlgraph.layer_edges", b.firstGraphEdges.toDouble, "count", "edges summed over layers, first graph"),
      Metric("mlgraph.query_share", ratio(st.ingestNs, st.queryNs), "ratio", "ingest time / query time"),
      Metric("preprocess.s", s(st.preprocessNs), "s", "replayed"),
      Metric("preprocess.rounds", st.preprocessRounds.toDouble, "count"),
      Metric("preprocess.active_vertices", st.preprocessActive.toDouble, "count"),
      Metric("preprocess.alloc_mb", st.preprocessAlloc / MB, "MB"),
      Metric("preprocess.share", ratio(st.preprocessNs, st.queryNs), "ratio", "replayed preprocess / query time"),
      Metric("dcc.calls", st.dccCalls.toDouble, "count", "replayed GD candidate peels"),
      Metric("dcc.s", s(st.dccNs), "s"),
      Metric("dcc.scope_vertices", st.dccScope.toDouble, "count"),
      Metric("dcc.out_vertices", st.dccOut.toDouble, "count"),
      Metric("dcc.keep_ratio", ratio(st.dccOut, st.dccScope), "ratio", "out / scope"),
      Metric("dcc.alloc_mb", st.dccAlloc / MB, "MB"),
      Metric("dcc.alloc_bytes_per_scope_vertex", ratio(st.dccAlloc, st.dccScope), "B"),
      Metric("dcc.share", ratio(st.dccNs, st.queryNs), "ratio", "replayed peels / query time"),
      Metric("setops.calls", st.setopsCalls.toDouble, "count", "replayed GD Lemma-1 bounds"),
      Metric("setops.s", s(st.setopsNs), "s"),
      Metric("search.dcc_calls", st.searchDccCalls.toDouble, "count", "the algorithm's own counter"),
      Metric("search.candidates", st.searchCandidates.toDouble, "count"),
      Metric("search.candidate_ratio", ratio(st.searchCandidates, st.searchSpace), "ratio", "candidates / C(l,s)"),
      Metric("search.s", s(searchNs), "s", "derived: query - ingest - replayed preprocess"),
      Metric("search.alloc_mb", searchAlloc / MB, "MB", "derived like search.s"),
      Metric("query.s", s(st.queryNs), "s", s"the ${st.queries} queries of the replayed pass"),
      Metric("query.alloc_mb", st.queryAlloc / MB, "MB"),
      Metric("jvm.gc_s", b.gcSeconds, "s", "during the timed phase"),
      Metric("jvm.gc_count", b.gcCount.toDouble, "count"),
      Metric("trace.query_s_p50", median(lat), "s", s"median of ${lat.length} traced queries"),
    )
  }

  private def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 2).collect {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
    }.toMap
    def need(k: String): String = opts.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val w = Workload.byName(need("workload")).getOrElse {
      System.err.println(s"unknown workload; one of ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val tracer = new Tracer(need("trace") == "1")
    val outDir = Paths.get(need("out"))

    val env = Seq(
      "java" -> str(System.getProperty("java.version")),
      "jvm" -> str(System.getProperty("java.vm.name")),
      "heap_max_mb" -> num(Runtime.getRuntime.maxMemory / MB),
      "nproc" -> num(Runtime.getRuntime.availableProcessors),
      "spark" -> str(org.apache.spark.SPARK_VERSION),
      "commit" -> str(opts.getOrElse("commit", "unknown")),
      "source_sha256" -> str(opts.getOrElse("source-hash", "unknown")),
    )
    println(s"[perfbench] workload=${w.name} seed=$seed seconds=$seconds trace=${if (tracer.enabled) 1 else 0}")
    println(s"[perfbench] env ${obj(env)}")

    val bench = new Bench(w, seed, seconds, tracer)
    bench.run()
    if (bench.layers.replayMismatches > 0)
      println(s"[perfbench] warning: ${bench.layers.replayMismatches} replayed GD candidates differ from GD's answer")
    bench.checker.problems.take(20).foreach(p => println(s"[perfbench] FAILED $p"))

    val metrics = if (tracer.enabled) perLayer(bench) else endToEnd(bench)
    metrics.foreach { m =>
      println(f"[perfbench] ${m.name}%-34s ${num(m.value)}%16s ${m.unit}%-6s ${m.note}")
    }
    val failedFrac = ratio(bench.failed, bench.attempted)
    println(s"[perfbench] failed_frac ${num(failedFrac)} (${bench.failed} of ${bench.attempted} queries)")

    val metricsJson = obj(metrics.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit)))))
    val correct = bench.failed == 0
    Files.createDirectories(outDir)
    val tag = s"${w.name}-seed$seed-trace${if (tracer.enabled) 1 else 0}"
    Files.write(outDir.resolve(s"$tag.json"), obj(Seq(
      "workload" -> str(w.name), "seed" -> seed.toString, "seconds" -> num(seconds),
      "env" -> obj(env), "correct" -> correct.toString,
      "attempted" -> num(bench.attempted), "failed" -> num(bench.failed),
      "failed_frac" -> num(failedFrac),
      "problems" -> bench.checker.problems.map(str).mkString("[", ", ", "]"),
      "timed_query_s" -> bench.timed.map(sp => num(sp.seconds)).mkString("[", ", ", "]"),
      "metrics" -> metricsJson,
    )).getBytes(UTF_8))
    if (tracer.enabled) {
      val lines = tracer.spans.iterator.map { sp =>
        obj(Seq("id" -> num(sp.id), "parent" -> num(sp.parent), "query" -> num(sp.query),
          "name" -> str(sp.name), "start_ns" -> sp.startNs.toString,
          "end_ns" -> sp.endNs.toString, "alloc_bytes" -> sp.allocBytes.toString))
      }
      Files.write(outDir.resolve(s"$tag.spans.jsonl"), lines.toSeq.asJava, UTF_8)
    }
    println(obj(Seq("correct" -> correct.toString, "attempted" -> num(bench.attempted),
      "failed" -> num(bench.failed), "metrics" -> metricsJson)))
  }
}
