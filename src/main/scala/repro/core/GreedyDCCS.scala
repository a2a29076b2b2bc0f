package repro.core

/** GD-DCCS (Fig. 2): generate all C(l, s) candidate d-CCs, then pick k of
  * them greedily by marginal cover gain. (1 - 1/e)-approximate.
  *
  * The candidates are peeled on G[A] ([[Preprocess.Survivors]]), and only
  * the picked cores are mapped back to the ids of `g`.
  *
  * Each layer core `C_i` is held as a bitset of ⌈|A|/64⌉ longs, so a
  * candidate's Lemma-1 bound `B = ∩_{i∈L} C_i` is the AND of s bitsets
  * and |B| a popcount. A candidate whose bound is as large as each of its
  * layer cores is its own d-CC, unpeeled: `B ⊆ C_i`, so `|B| = |C_i|`
  * means `B = C_i`, which is d-dense on layer i; dense on every layer of
  * L, B is the d-CC, the largest such set inside the bound. Such a
  * candidate costs O(s·|A|/64) word operations, and G[A] is built only
  * when some layer core is smaller than A, so that a candidate may need a
  * peel; any other candidate decodes B and peels inside it. `dccCalls`
  * still counts one d-CC evaluation per candidate.
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
    val result = picks.toVector.map(c => Core(f.layerSets(c), decode(f.cands(c)).map(f.ids)))
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

    // Lines 4-7 on G[A]: one candidate per layer subset of size s, computed
    // inside the intersection bound of Lemma 1, the AND of its layer cores'
    // bitsets; a bound as large as each of its layer cores is that d-CC (see
    // above), so G[A] is needed only if some layer core is smaller than A.
    // It is built here, not by the first pooled candidate while the others
    // wait on the lazy val. The candidates run on the common fork-join pool,
    // each into its combination's slot, so selection sees the enumeration
    // order.
    if (cores.exists(_.length < a.ids.length)) a.graph
    val words = (a.ids.length + 63) >>> 6
    val coreBits = cores.map(bitset(_, words))
    val combos = (0 until g.numLayers).combinations(s).toArray
    val cands = Par.tabulate(combos.length) { c =>
      val combo = combos(c)
      val b = bound(coreBits, combo)
      val size = popcount(b)
      if (size == 0 || dense(cores, combo, size)) b
      else bitset(Dcc.compute(a.graph, combo.toArray, d, decode(b)), words)
    }
    new Family(d, s, a.ids, a.pre.rounds, combos.map(_.toVector), cands)
  }

  /** Lemma 1's bound of the layer set `combo`, `∩_{i∈L} C_i`, as the AND of
    * its layer cores' bitsets.
    */
  private[core] def bound(coreBits: Array[Array[Long]], combo: IndexedSeq[Int]): Array[Long] = {
    val b = coreBits(combo(0)).clone()
    var j = 1
    while (j < combo.length) {
      val c = coreBits(combo(j))
      var w = 0
      while (w < b.length) { b(w) &= c(w); w += 1 }
      j += 1
    }
    b
  }

  /** Is a bound of `size` members as large as each of the layer cores of
    * `combo`, and so its own d-CC (see above)?
    */
  private[core] def dense(cores: Array[Array[Int]], combo: IndexedSeq[Int], size: Int): Boolean =
    combo.forall(cores(_).length == size)

  /** `xs` (ids below 64·words) as a bitset of `words` longs: bit x is bit
    * x % 64 of word x / 64.
    */
  private[core] def bitset(xs: Array[Int], words: Int): Array[Long] = {
    val bits = new Array[Long](words)
    var k = 0
    while (k < xs.length) { bits(xs(k) >>> 6) |= 1L << xs(k); k += 1 }
    bits
  }

  private def popcount(bits: Array[Long]): Int = {
    var n = 0
    var w = 0
    while (w < bits.length) { n += java.lang.Long.bitCount(bits(w)); w += 1 }
    n
  }

  /** The members of a bitset, ascending. */
  private[core] def decode(bits: Array[Long]): Array[Int] = {
    val out = new Array[Int](popcount(bits))
    var n = 0
    var w = 0
    while (w < bits.length) {
      var word = bits(w)
      while (word != 0) {
        out(n) = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
        n += 1
        word &= word - 1
      }
      w += 1
    }
    out
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
    (picks, popcount(covered))
  }
}
