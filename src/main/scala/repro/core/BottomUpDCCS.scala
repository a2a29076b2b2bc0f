package repro.core

import scala.collection.mutable
import scala.util.control.Breaks

/** BU-DCCS (Section IV, Figs. 3 & 7): bottom-up DFS over the layer-subset
  * search tree, interleaving candidate generation with top-k maintenance.
  *
  * Pruning: Lemma 2 (Eq. (1) on the candidate kills the subtree), Lemma 3
  * (order-based early break on |C_L ∩ C^d(G_j)|), Lemma 4 (layer pruning via
  * the `L_Q` exclusion set). The Section IV-C preprocessing (layers sorted
  * in descending order of |C^d(G_i)|) is [[Search]]'s.
  *
  * The walk never enters a subtree that cannot reach depth s (the usual
  * bound of combination enumeration), so s = l, or C(l,s) < k where R
  * never fills, costs polynomially many peels in l rather than 2^l.
  *
  * 1/4-approximate (Theorem 3).
  */
object BottomUpDCCS {

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Search.Config = Search.Config()): GreedyDCCS.Output = {
    val search = new Search(g, d, s, k, cfg, descending = true)
    import search.{cores, l, topk}

    // Procedure BU-Gen (Fig. 3), positions ascending in `L`.
    def buGen(L: List[Int], cL: Array[Int], lQ: Set[Int]): Unit = {
      val maxL = if (L.isEmpty) -1 else L.last
      val lP = ((maxL + 1) until l).filterNot(lQ)
      val lR = mutable.ArrayBuffer.empty[Int]
      val childCore = mutable.HashMap.empty[Int, Array[Int]]

      // The combination bound: L ∪ {j} can grow to size s only if at least
      // s - |L| - 1 positions lie after j.
      def reachesS(j: Int): Boolean = l - 1 - j >= s - L.length - 1

      // Peels L ∪ {j} inside `bound`: a size-s candidate goes to R, an
      // interior node whose core passes `keep` joins lR.
      def visit(j: Int, bound: Array[Int], keep: Array[Int] => Boolean): Unit = {
        val cc = search.peel(L :+ j, bound)
        if (L.length + 1 == s) search.offer(L :+ j, cc)
        else if (keep(cc)) { lR += j; childCore(j) = cc }
      }

      // The positions Lemma 4 adds to L_Q below this node.
      val pruned: Set[Int] = if (topk.size < k) {
        // Lines 2-9: no pruning available yet, so nothing joins L_Q. A
        // position that cannot reach depth s is not peeled: its subtree
        // holds no candidate, and a shallower sibling may still need it.
        lP.filter(reachesS).foreach(j => visit(j, SetOps.intersect(cL, cores(j)), _ => true))
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
            visit(j, bound, topk.satisfiesEq1)
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

    buGen(Nil, search.survivors, Set.empty)
    search.output
  }
}
