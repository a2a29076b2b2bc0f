package repro.perfbench

import repro.core._
import repro.graphgen.MLSynth

/** Parameters of one DCCS query. */
final case class QuerySpec(algo: String, s: Int, d: Int, k: Int) {

  /** Runs the query through the algorithm's public entry point. */
  def run(g: MLGraph): GreedyDCCS.Output = algo match {
    case "GD" => GreedyDCCS.run(g, d, s, k)
    case "BU" => BottomUpDCCS.run(g, d, s, k)
    case "TD" => TopDownDCCS.run(g, d, s, k)
  }

  /** C(l, s): the number of layer subsets a query ranges over. */
  def layerSets(l: Int): Long = (1 to s).foldLeft(1L)((acc, i) => acc * (l - s + i) / i)

  override def toString: String = s"$algo(s=$s,d=$d,k=$k)"
}

/** A closed-loop, single-client workload.
  *
  * Query `i` runs `params(i % params.length)` on graph `graphOf(i)`. A
  * shared-graph workload cycles over `graphs` graphs that are built once in
  * set-up; a fresh-graph workload ingests a new graph in every query. One
  * pass is the first `passLength` queries: it touches every graph and every
  * parameter set once, and `cover_vertices` and the traced replay use it.
  *
  * Every graph comes from `MLSynth.generate(shape.copy(seed = ...))` with a
  * seed derived from the run seed, so a run is repeatable and the program
  * only ever sees the built graph or its edge list.
  */
final case class Workload(name: String, shape: MLSynth.Spec, graphs: Int,
                          fresh: Boolean, params: Vector[QuerySpec]) {
  val passLength: Int = math.max(graphs, params.length)
  def graphOf(i: Int): Int = if (fresh) i else i % graphs
  def paramsOf(i: Int): QuerySpec = params(i % params.length)
  def spec(runSeed: Long, graph: Int): MLSynth.Spec =
    shape.copy(seed = runSeed * 1000003L + graph)
}

object Workload {

  /** A preset with a quarter of its vertices, communities and background
    * edges: the same layer count and density, at a size where one run holds
    * enough queries for a steady median (GD takes about 3 s per query on the
    * full-size stack preset). Every community has the preset's mean size:
    * with sizes drawn per community, the few communities supported on all
    * layers set most of the query cost, and graphs from different seeds
    * differed by a quarter in GD latency and a tenth in cover.
    */
  private def quarter(preset: String): MLSynth.Spec = {
    val p = MLSynth.presets(preset)
    val size = (p.minCommSize + p.maxCommSize) / 2
    p.copy(name = s"$preset-quarter", n = p.n / 4, nCommunities = p.nCommunities / 4,
      minCommSize = size, maxCommSize = size, bgEdgesPerLayer = p.bgEdgesPerLayer / 4)
  }

  private val stack = quarter("stack")     // l = 24
  private val english = quarter("english") // l = 15
  private val ks = Vector(5, 10, 15, 20, 25)
  private val largeS = Vector(3, 4, 5).map(d => (23, d))

  /** The workloads of BENCHMARK.json. They run GD only: on the current
    * program BU's and TD's answers repeat layer sets (see `failing`).
    */
  val listed: Vector[Workload] = Vector(
    // GD's C(24,3) = 2024 small-scope peels and O(k·|F|·n) selection;
    // queries on a graph share preprocessing and candidates.
    Workload("small-s", stack, 4, fresh = false, ks.map(QuerySpec("GD", 3, 4, _))),
    // GD at s = l - 1: multi-round preprocessing leaves a few hundred active
    // vertices for 24 tiny-scope peels. A graph meets a given d again only
    // after 24 queries. (At s = 21 GD takes 4.6 s per query.)
    Workload("large-s", stack, 8, fresh = false,
      largeS.map { case (s, d) => QuerySpec("GD", s, d, 10) }),
    // Ingest plus GD on a never-seen graph: nothing is shared.
    Workload("fresh-graphs", english, 8, fresh = true, Vector(QuerySpec("GD", 3, 4, 10))),
  )

  /** BU and TD on the same shapes. Their answers fail the "no layer set
    * twice" check: InitTopK can pick one layer set in several of its k
    * rounds and `TopKDiversified` keeps every copy. They stay out of
    * BENCHMARK.json until the program returns distinct layer sets.
    */
  val failing: Vector[Workload] = Vector(
    Workload("large-s-td", stack, 8, fresh = false,
      largeS.map { case (s, d) => QuerySpec("TD", s, d, 10) }),
    Workload("fresh-graphs-bu", english, 8, fresh = true, Vector(QuerySpec("BU", 3, 4, 10))),
  )

  val all: Vector[Workload] = listed ++ failing

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
