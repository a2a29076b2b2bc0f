package repro.core

/** GD-DCCS (Fig. 2): generate all C(l, s) candidate d-CCs, then pick k of
  * them greedily by marginal cover gain. (1 - 1/e)-approximate.
  *
  * Selection is the paper's O(k·|F|·n) scan on purpose — the k-scaling
  * behaviour of GD-DCCS in Fig. 22/23 comes from exactly this term.
  */
object GreedyDCCS {

  /** Machine-independent work counters shared by all three algorithms. */
  final case class Stats(dccCalls: Int,
                         candidatesGenerated: Int,
                         totalMillis: Long)

  final case class Output(result: Vector[Core], coverSize: Int, stats: Stats) {
    def coverSet: Array[Int] = {
      val bs = new java.util.BitSet()
      result.foreach(_.vertices.foreach(bs.set))
      Iterator.iterate(bs.nextSetBit(0))(i => bs.nextSetBit(i + 1))
        .takeWhile(_ >= 0).toArray
    }
  }

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          vertexDeletion: Boolean = true): Output = {
    require(s >= 1 && s <= g.numLayers, s"s=$s out of range 1..${g.numLayers}")
    require(k >= 1, "k must be >= 1")
    val t0 = System.nanoTime()
    var dccCalls = 0

    // Lines 1-3 + preprocessing: per-layer d-cores (on the pruned graph).
    val pre = Preprocess.vertexDeletion(g, d, s, vertexDeletion)
    dccCalls += g.numLayers * pre.rounds

    // Lines 4-7: one candidate per layer subset of size s, computed inside
    // the intersection bound of Lemma 1.
    val candidates = (0 until g.numLayers).combinations(s).map { combo =>
      val bound = SetOps.intersectAll(combo.map(pre.layerCores))
      dccCalls += 1
      val cc =
        if (bound.isEmpty) Array.empty[Int]
        else Dcc.compute(g, combo.toArray, d, bound)
      Core(combo.toVector, cc)
    }.toVector

    // Lines 8-10: greedy max-cover selection.
    val covered = new java.util.BitSet(g.numVertices)
    val picked = Vector.newBuilder[Core]
    val remaining = scala.collection.mutable.ArrayBuffer.from(candidates)
    var j = 0
    while (j < k && remaining.nonEmpty) {
      var bestIdx = 0; var bestGain = -1
      var i = 0
      while (i < remaining.length) {
        val vs = remaining(i).vertices
        var gain = 0
        var t = 0
        while (t < vs.length) { if (!covered.get(vs(t))) gain += 1; t += 1 }
        if (gain > bestGain) { bestGain = gain; bestIdx = i }
        i += 1
      }
      val best = remaining.remove(bestIdx)
      best.vertices.foreach(covered.set)
      picked += best
      j += 1
    }

    val res = picked.result()
    Output(res, covered.cardinality(),
      Stats(dccCalls, candidates.length,
            (System.nanoTime() - t0) / 1000000L))
  }
}
