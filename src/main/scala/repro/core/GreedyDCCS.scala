package repro.core

/** GD-DCCS (Fig. 2): generate all C(l, s) candidate d-CCs, then pick k of
  * them greedily by marginal cover gain. (1 - 1/e)-approximate.
  *
  * Every candidate lies inside the survivors A of vertex deletion, so the
  * candidates are peeled on the induced subgraph G[A] (local ids) and only
  * the picked cores are mapped back to the ids of `g`.
  *
  * A candidate whose Lemma-1 bound `B = ∩_{i∈L} C_i` is as large as each
  * of its layer cores is its own d-CC, unpeeled: `B ⊆ C_i`, so
  * `|B| = |C_i|` means `B = C_i`, which is d-dense on layer i; dense on
  * every layer of L, B is the d-CC, the largest such set inside the bound.
  * Such a candidate costs O(s) compares, and G[A] is built only when some
  * layer core is smaller than A, so that a candidate may need a peel.
  * `dccCalls` still counts one d-CC evaluation per candidate.
  *
  * Selection is the paper's O(k·|F|·n) scan on purpose — the k-scaling
  * behaviour of GD-DCCS in Fig. 22/23 comes from exactly this term. Each
  * round computes the |F| gains on the common fork-join pool.
  */
object GreedyDCCS {

  /** Machine-independent work counters shared by all three algorithms. */
  final case class Stats(dccCalls: Int,
                         candidatesGenerated: Int,
                         totalMillis: Long)

  /** The result type of all three algorithms. */
  final case class Output(result: Vector[Core], coverSize: Int, stats: Stats)

  def run(g: MLGraph, d: Int, s: Int, k: Int): Output = {
    Search.check(g, s, k)
    val t0 = System.nanoTime()

    // Lines 1-3 + preprocessing: per-layer d-cores (on the pruned graph).
    val pre = Preprocess.vertexDeletion(g, d, s)

    // Lines 4-7 on G[A]: every layer core and every candidate lies inside
    // the survivors A, so peel there (g itself when nothing was deleted).
    // One candidate per layer subset of size s, computed inside the
    // intersection bound of Lemma 1; a bound as large as each of its layer
    // cores is that d-CC (see above), so G[A] is built (`sub` non-null) only
    // if some layer core is smaller than A. The candidates run on the common
    // fork-join pool, each into its combination's slot, so selection sees
    // the enumeration order.
    val ids = if (pre.active.length == g.numVertices) null else pre.active
    val cores = if (ids == null) pre.layerCores else pre.layerCores.map(toLocal(_, ids))
    val sub =
      if (ids == null) g
      else if (cores.forall(_.length == ids.length)) null
      else g.induced(ids)._1
    val combos = (0 until g.numLayers).combinations(s).toArray
    val candidates = Par.tabulate(combos.length) { c =>
      val combo = combos(c)
      val bound = SetOps.intersectAll(combo.map(cores))
      val cc =
        if (bound.isEmpty || combo.forall(cores(_).length == bound.length)) bound
        else Dcc.compute(sub, combo.toArray, d, bound)
      Core(combo.toVector, cc)
    }

    val (picked, cover) = select(candidates, k)
    // back to the ids of g; the relabelling is monotone, so still sorted
    val result =
      if (ids == null) picked else picked.map(c => Core(c.layers, c.vertices.map(ids)))
    // l layer d-cores per preprocessing round (round 1 reads them from the
    // core numbers, later rounds peel them), one dCC call per candidate
    Output(result, cover,
      Stats(g.numLayers * pre.rounds + combos.length, candidates.length,
            (System.nanoTime() - t0) / 1000000L))
  }

  /** Positions in `ids` of the members of `vs`; both sorted, `vs ⊆ ids`. */
  private def toLocal(vs: Array[Int], ids: Array[Int]): Array[Int] = {
    val out = new Array[Int](vs.length)
    var p = 0
    var i = 0
    while (i < vs.length) {
      while (ids(p) < vs(i)) p += 1
      out(i) = p
      i += 1
    }
    out
  }

  /** Lines 8-10: greedy max-cover selection of up to `k` candidates by
    * marginal gain; among equal gains the earliest candidate wins. Returns
    * the picks in selection order and the size of their union.
    */
  def select(candidates: Array[Core], k: Int): (Vector[Core], Int) = {
    val covered = new java.util.BitSet()
    val taken = new Array[Boolean](candidates.length)
    val picked = Vector.newBuilder[Core]
    var j = 0
    while (j < k && j < candidates.length) {
      // the gains only read `covered` and `taken`, written between rounds
      val gains = Par.tabulate(candidates.length) { i =>
        if (taken(i)) -1
        else {
          val vs = candidates(i).vertices
          var gain = 0
          var t = 0
          while (t < vs.length) { if (!covered.get(vs(t))) gain += 1; t += 1 }
          gain
        }
      }
      // the first maximum; an untaken candidate (gain >= 0) always exists
      var bestIdx = 0
      var i = 1
      while (i < gains.length) { if (gains(i) > gains(bestIdx)) bestIdx = i; i += 1 }
      taken(bestIdx) = true
      candidates(bestIdx).vertices.foreach(covered.set)
      picked += candidates(bestIdx)
      j += 1
    }
    (picked.result(), covered.cardinality())
  }
}
