package repro.core

import scala.collection.mutable
import scala.util.control.Breaks

/** BU-DCCS (Section IV, Figs. 3 & 7): bottom-up DFS over the layer-subset
  * search tree, interleaving candidate generation with top-k maintenance.
  *
  * Pruning: Lemma 2 (Eq. (1) on the candidate kills the subtree), Lemma 3
  * (order-based early break on |C_L ∩ C^d(G_j)|), Lemma 4 (layer pruning via
  * the `L_Q` exclusion set). Preprocessing (Section IV-C): vertex deletion,
  * sorting layers desc by |C^d(G_i)|, and greedy InitTopK — each is
  * independently toggleable for the Fig. 28 ablation.
  *
  * The walk never enters a subtree that cannot reach depth s (the usual
  * bound of combination enumeration), so s = l, or C(l,s) < k where R
  * never fills, costs polynomially many peels in l rather than 2^l.
  *
  * 1/4-approximate (Theorem 3).
  */
object BottomUpDCCS {

  final case class Config(vertexDeletion: Boolean = true,
                          sortLayers: Boolean = true,
                          initTopK: Boolean = true)

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Config = Config()): GreedyDCCS.Output = {
    require(s >= 1 && s <= g.numLayers, s"s=$s out of range 1..${g.numLayers}")
    val t0 = System.nanoTime()
    val l = g.numLayers
    var dccCalls = 0
    var candidates = 0

    // BU-DCCS lines 1-7: vertex deletion.
    val pre = Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion)
    dccCalls += l * pre.rounds

    // Line 9: sort layers in descending order of |C^d(G_i)|. We work in
    // position space: position p denotes original layer order(p).
    val order: Array[Int] =
      if (cfg.sortLayers) (0 until l).sortBy(i => -pre.layerCores(i).length).toArray
      else Array.range(0, l)
    val cores: Array[Array[Int]] = order.map(pre.layerCores) // core at position p

    val topk = new TopKDiversified(k)

    def mkCore(positions: Seq[Int], vs: Array[Int]): Core =
      Core(positions.map(order).sorted.toVector, vs)

    // Line 8: InitTopK (Appendix D).
    if (cfg.initTopK) {
      TopKDiversified.initTopK(g, d, s, order, cores, topk)
      dccCalls += k; candidates += k
    }

    // Procedure BU-Gen (Fig. 3), positions ascending in `L`.
    def buGen(L: List[Int], cL: Array[Int], lQ: Set[Int]): Unit = {
      val maxL = if (L.isEmpty) -1 else L.last
      val lP = ((maxL + 1) until l).filterNot(lQ)
      val lR = mutable.ArrayBuffer.empty[Int]
      val childCore = mutable.HashMap.empty[Int, Array[Int]]

      // The combination bound: L ∪ {j} can grow to size s only if at least
      // s - |L| - 1 positions lie after j.
      def reachesS(j: Int): Boolean = l - 1 - j >= s - L.length - 1

      // `candidates` counts generated size-s candidate d-CCs (comparable to
      // GD's C(l,s)); interior tree nodes are counted in dccCalls only.
      def candidate(j: Int, bound: Array[Int]): Array[Int] = {
        dccCalls += 1
        if (L.length + 1 == s) candidates += 1
        if (bound.isEmpty) Array.empty[Int]
        else Dcc.compute(g, (L :+ j).map(order).toArray, d, bound)
      }

      // The positions Lemma 4 adds to L_Q below this node.
      val pruned: Set[Int] = if (topk.size < k) {
        // Lines 2-9: no pruning available yet, so nothing joins L_Q. A
        // position that cannot reach depth s is not peeled: its subtree
        // holds no candidate, and a shallower sibling may still need it.
        lP.filter(reachesS).foreach { j =>
          val cc = candidate(j, SetOps.intersect(cL, cores(j)))
          if (L.length + 1 == s) topk.tryUpdate(mkCore(L :+ j, cc))
          else { lR += j; childCore(j) = cc }
        }
        Set.empty
      } else {
        // Lines 10-22: order by |C_L ∩ C^d(G_j)| desc, break per Lemma 3,
        // keep per Eq. (1) (Lemma 2), record prunes for Lemma 4.
        val sorted = lP.map(j => (j, SetOps.intersect(cL, cores(j))))
          .sortBy { case (_, b) => -b.length }
        val brk = new Breaks
        brk.breakable {
          sorted.foreach { case (j, bound) =>
            if (bound.length < topk.orderPruneThreshold) brk.break()
            val cc = candidate(j, bound)
            if (L.length + 1 == s) topk.tryUpdate(mkCore(L :+ j, cc))
            else if (topk.satisfiesEq1(cc)) { lR += j; childCore(j) = cc }
          }
        }
        lP.toSet -- lR
      }

      // Lines 23-26: recurse into the subtrees that can reach depth s;
      // Lemma 4 forbids the pruned expansions below.
      if (L.length + 1 < s) {
        val lQChild = lQ ++ pruned
        lR.filter(reachesS).foreach(j => buGen(L :+ j, childCore(j), lQChild))
      }
    }

    if (s >= 1) buGen(Nil, pre.active, Set.empty)

    val res = topk.result
    GreedyDCCS.Output(res, topk.covSize,
      GreedyDCCS.Stats(dccCalls, candidates,
                       (System.nanoTime() - t0) / 1000000L))
  }
}
