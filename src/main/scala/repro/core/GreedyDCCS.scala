package repro.core

/** GD-DCCS (Fig. 2): generate all C(l, s) candidate d-CCs, then pick k of
  * them greedily by marginal cover gain. (1 - 1/e)-approximate.
  *
  * Lines 1-7 work in the survivors A of vertex deletion
  * ([[Preprocess.Survivors]]), in A's local ids; only the picked cores are
  * mapped back to the ids of `g`. Each layer core `C_i` is a bitset of
  * ⌈|A|/64⌉ longs ([[Bits]]), so a candidate's Lemma-1 bound
  * `B = ∩_{i∈L} C_i` is the AND of s bitsets and |B| a popcount. A bound as
  * large as each of its layer cores is its own d-CC ([[Bits.dense]]) and
  * costs O(s·|A|/64) words. Every other candidate is peeled inside B, on
  * one of two walks that one rule ([[bitRows]]) picks for the whole
  * family:
  *  - on bit rows ([[Bits.peel]]) when a row of ⌈|A|/64⌉ words is no longer
  *    than the mean degree in g of the layer cores' members, so that a
  *    degree is a popcount over no more words than the CSR row it replaces
  *    has entries, and the rows take no more longs than those CSR rows take
  *    ints;
  *  - otherwise with `Dcc.compute` on G[A].
  * When every layer core is A, no candidate needs a peel, and neither the
  * rows nor G[A] is built. `dccCalls` counts one d-CC evaluation per
  * candidate, whichever way it was found.
  *
  * Lines 1-7 do not read k. Their result, the candidate family F (the
  * survivors, the deletion rounds, the layer sets and each candidate d-CC
  * as a bitset over the local ids of G[A]), is kept on the graph for the
  * most recent (d, s) (`MLGraph.gdFamily`): a query with the same d and s
  * runs only the selection, and one with another (d, s) builds its family
  * and replaces the slot. `Stats` counts the family's work on every query,
  * so the counters do not depend on what ran before.
  *
  * Selection is the paper's O(k·|F|·n) scan on purpose — the k-scaling
  * behaviour of GD-DCCS in Fig. 22/23 comes from exactly this term. Each
  * of the k rounds recomputes every candidate's gain as the popcount of
  * its words not yet covered, ⌈|A|/64⌉ words per candidate, on the
  * calling thread.
  */
object GreedyDCCS {

  /** Machine-independent work counters shared by all three algorithms. */
  final case class Stats(dccCalls: Int,
                         candidatesGenerated: Int,
                         totalMillis: Long)

  /** The result type of all three algorithms. */
  final case class Output(result: Vector[Core], coverSize: Int, stats: Stats)

  /** Lines 1-7 of Fig. 2 for one (d, s) on one graph: everything GD
    * computes before it reads k.
    *
    * @param ids       the survivors A in the ids of `g`
    * @param rounds    vertex-deletion rounds
    * @param layerSets each candidate's layer set, in enumeration order
    * @param cands     each candidate's d-CC as a bitset of ⌈|A|/64⌉ longs
    *                  over the local ids of G[A]
    */
  private[core] final class Family(val d: Int, val s: Int, val ids: Array[Int],
                                   val rounds: Int, val layerSets: Array[Vector[Int]],
                                   val cands: Array[Array[Long]])

  def run(g: MLGraph, d: Int, s: Int, k: Int): Output = {
    Search.check(g, s, k)
    val t0 = System.nanoTime()
    val memo = g.gdFamily
    val f =
      if (memo != null && memo.d == d && memo.s == s) memo
      else { val built = family(g, d, s); g.gdFamily = built; built }

    val (picks, cover) = select(f.cands, k)
    // back to the ids of g; the relabelling is monotone, so still sorted
    val result = picks.toVector.map(c => Core(f.layerSets(c), Bits.decode(f.cands(c)).map(f.ids)))
    // l layer d-cores per preprocessing round (round 1 reads them from the
    // core numbers, later rounds peel them), one dCC call per candidate
    Output(result, cover,
      Stats(g.numLayers * f.rounds + f.cands.length, f.cands.length,
            (System.nanoTime() - t0) / 1000000L))
  }

  private def family(g: MLGraph, d: Int, s: Int): Family = {
    // Lines 1-3 + preprocessing: per-layer d-cores (on the pruned graph).
    val a = new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, d, s))
    val cores = a.layerCores

    // Lines 4-7: one candidate per layer subset of size s, inside its
    // Lemma-1 bound, on the walk the rule picks (see above). The rows or G[A]
    // are built here, not by the first pooled candidate while the others
    // wait on the lazy val, and stay local to this call. The candidates run
    // on the common fork-join pool, each into its combination's slot, so
    // selection sees the enumeration order.
    val words = (a.ids.length + 63) >>> 6
    val mayPeel = cores.exists(_.length < a.ids.length)
    val rows = if (mayPeel && bitRows(g, a.ids, cores, words)) Bits.rows(g, a.ids, cores, words) else null
    val h = if (mayPeel && rows == null) a.graph else null
    val coreBits = cores.map(Bits.bitset(_, words))
    val combos = (0 until g.numLayers).combinations(s).toArray
    val cands = Par.tabulate(combos.length) { c =>
      val combo = combos(c)
      val b = Bits.bound(coreBits, combo)
      val size = Bits.popcount(b)
      if (size == 0 || Bits.dense(cores, combo, size)) b
      else if (rows != null) Bits.peel(rows, combo.toArray, d, b)
      else Bits.bitset(Dcc.compute(h, combo.toArray, d, Bits.decode(b)), words)
    }
    new Family(d, s, a.ids, a.pre.rounds, combos.map(_.toVector), cands)
  }

  /** GD's rule for its candidate peels: bit rows of `words` longs when
    * `words` is at most the mean degree in g of the members of the layer
    * cores `cores` (local ids of the survivors `ids`), read from g's
    * offsets in O(Σ|C_i|); `Dcc.compute` on G[A] otherwise.
    */
  private[core] def bitRows(g: MLGraph, ids: Array[Int], cores: Array[Array[Int]],
                            words: Int): Boolean = {
    var members = 0L
    var degrees = 0L
    var i = 0
    while (i < cores.length) {
      val off = g.offsets(i)
      val core = cores(i)
      members += core.length
      var k = 0
      while (k < core.length) { val v = ids(core(k)); degrees += off(v + 1) - off(v); k += 1 }
      i += 1
    }
    words * members <= degrees
  }

  /** Lines 8-10: greedy max-cover selection of up to `k` of the candidate
    * bitsets by marginal gain; among equal gains the earliest candidate
    * wins. Every round recomputes the gain `Σ popcount(cand & ~covered)` of
    * every untaken candidate. Returns the indices of the picks in selection
    * order and the size of their union.
    */
  private[core] def select(cands: Array[Array[Long]], k: Int): (Array[Int], Int) = {
    val words = if (cands.isEmpty) 0 else cands(0).length
    val covered = new Array[Long](words)
    val taken = new Array[Boolean](cands.length)
    val picks = new Array[Int](math.min(k, cands.length))
    var j = 0
    while (j < picks.length) {
      // the first maximum; an untaken candidate (gain >= 0) always exists
      var best = -1
      var bestGain = -1
      var i = 0
      while (i < cands.length) {
        if (!taken(i)) {
          val c = cands(i)
          var gain = 0
          var w = 0
          while (w < words) { gain += java.lang.Long.bitCount(c(w) & ~covered(w)); w += 1 }
          if (gain > bestGain) { best = i; bestGain = gain }
        }
        i += 1
      }
      taken(best) = true
      val c = cands(best)
      var w = 0
      while (w < words) { covered(w) |= c(w); w += 1 }
      picks(j) = best
      j += 1
    }
    (picks, Bits.popcount(covered))
  }
}
