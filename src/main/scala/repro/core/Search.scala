package repro.core

/** What BU-DCCS and TD-DCCS share: the parameter check, the Section IV-C
  * preprocessing (vertex deletion, layer sorting, InitTopK of Appendix D),
  * the top-k set R, the work counters and the output. The searches add
  * only their tree walks on top.
  *
  * Layers live in position space: position p denotes original layer
  * `order(p)`, and `cores(p)` is that layer's d-core after vertex deletion.
  * `descending` sorts the positions by decreasing |C^d(G_i)| (BU, line 9)
  * instead of increasing (TD, Section V-D). Vertices live in A's local ids
  * ([[Preprocess.Survivors]]); only R's cores are mapped back to those of `g`.
  */
private[core] final class Search(g: MLGraph, d: Int, s: Int, k: Int,
                                 cfg: Search.Config, descending: Boolean) {
  Search.check(g, s, k)
  private val t0 = System.nanoTime()
  val l: Int = g.numLayers

  // BU-DCCS lines 1-7: vertex deletion. Every peel runs on G[A].
  private val frame =
    new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion))
  private var dccCalls = l * frame.pre.rounds
  private var candidates = 0
  val graph: MLGraph = frame.graph
  val survivors: Array[Int] = Array.range(0, frame.ids.length)

  val order: Array[Int] =
    if (!cfg.sortLayers) Array.range(0, l)
    else if (descending) (0 until l).sortBy(i => -frame.layerCores(i).length).toArray
    else (0 until l).sortBy(i => frame.layerCores(i).length).toArray
  val cores: Array[Array[Int]] = order.map(frame.layerCores)
  /** `cores` as bitsets over A's local ids ([[Bits]]), built on first use:
    * by InitTopK and TD, never by BU's tree walk.
    */
  lazy val coreBits: Array[Array[Long]] = order.map(frame.coreBits)

  val topk = new TopKDiversified(k)
  if (cfg.initTopK) {
    TopKDiversified.initTopK(graph, d, s, order, coreBits, topk)
    dccCalls += k; candidates += k
  }

  /** The d-CC of the layers at `positions` inside `bound`; one dCC call. */
  def peel(positions: Seq[Int], bound: Array[Int]): Array[Int] = {
    dccCalls += 1
    if (bound.isEmpty) Array.empty[Int]
    else Dcc.compute(graph, positions.map(order).toArray, d, bound)
  }

  /** Offers the size-s candidate `vs` of `positions` to R; one candidate. */
  def offer(positions: Seq[Int], vs: Array[Int]): Unit = {
    candidates += 1
    topk.tryUpdate(Core(positions.map(order).sorted.toVector, vs))
  }

  def output: GreedyDCCS.Output =
    GreedyDCCS.Output(topk.result.map(c => c.copy(vertices = c.vertices.map(frame.ids))),
      topk.covSize,
      GreedyDCCS.Stats(dccCalls, candidates, (System.nanoTime() - t0) / 1000000L))
}

object Search {

  /** The Fig. 28 ablation toggles of the Section IV-C preprocessing. */
  final case class Config(vertexDeletion: Boolean = true,
                          sortLayers: Boolean = true,
                          initTopK: Boolean = true)

  /** The parameter check of all three algorithms. Any d is allowed: at
    * d ≤ 0 every vertex is in every d-core and every d-CC.
    */
  private[core] def check(g: MLGraph, s: Int, k: Int): Unit = {
    require(s >= 1 && s <= g.numLayers, s"s=$s out of range 1..${g.numLayers}")
    require(k >= 1, "k must be >= 1")
  }
}
