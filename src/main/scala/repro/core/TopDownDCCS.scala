package repro.core

import scala.util.control.Breaks

/** TD-DCCS (Section V, Figs. 8-11): top-down DFS from `L = [l]`, removing
  * one layer per tree edge. Each node carries its d-CC `C_L` and a potential
  * vertex set `U_L ⊇ C_L` (the scope containing every depth-s descendant).
  *
  * - `RefineU` (Fig. 9) shrinks `U_L` to `U_{L'}`: Class-1 layers (never
  *   removable below this node) get a degree-d peel; Class-2 layers get the
  *   support-count filter against the per-layer d-cores.
  * - `RefineC` (Fig. 10) finds the exact `C_{L'}` by peeling `U_{L'}`
  *   (see the deviation below).
  * - Prunings: Lemma 5 (Eq. (1) on `U_{L'}`), Lemma 6 (order-based break on
  *   `|U_{L'}|`), Lemma 7 (Eq. (2) -> evaluate one random depth-s descendant
  *   and skip the subtree).
  *
  * The Section IV-C preprocessing, with layers sorted ascending by
  * |C^d(G_i)| (Section V-D), is [[Search]]'s. 1/4-approximate (Theorem 4).
  * Intended for s ≥ l/2 but correct for any s.
  *
  * Documented deviation in RefineC: we peel `U_{L'}` directly, without the
  * hierarchical core index. This is exact, because `C_{L'} ⊆ U_{L'}` and the
  * d-CC inside any superset of `C_{L'}` is `C_{L'}`. The index's Lemma-8
  * filter removed almost no vertex on the TD bench workloads, and its
  * Lemma-9 chain discard is unsound as stated: d-core peeling is a global
  * fixpoint, so removing a low-level vertex can cascade through higher-level
  * vertices of `C_{L'}` and evict a core vertex that has no lower-level
  * neighbor, leaving no ascending chain. DESIGN.md §4 has the details, and
  * CoreIndexSpec pins a counterexample on a test-local build of the index.
  */
object TopDownDCCS {

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Search.Config = Search.Config()): GreedyDCCS.Output = {
    val search = new Search(g, d, s, k, cfg, descending = false)
    import search.{coreBits, graph, l, order, peel, offer, topk}
    val rng = new scala.util.Random(42L) // Lemma 7's random descendant

    // The positions of L above its largest missing one: the layers that
    // L's descendants may still remove (L ascending).
    def removable(L: List[Int]): List[Int] = {
      val maxMissing = ((l - 1) to 0 by -1).find(p => !L.contains(p)).getOrElse(-1)
      L.filter(_ > maxMissing)
    }

    // ---- RefineU (Fig. 9) -------------------------------------------------
    def refineU(u: Array[Int], lPrime: List[Int]): Array[Int] = {
      val nCls = removable(lPrime)
      val m = lPrime.filterNot(nCls.contains)
      // Refinement Method 2 (support count over Class-2 cores) — core
      // membership is static, so one pass reaches the fixpoint.
      val need = s - m.length
      val afterR2 =
        if (need <= 0 || nCls.isEmpty) u
        else u.filter { v =>
          var c = 0
          nCls.foreach(j => if (Bits.has(coreBits(j), v)) c += 1)
          c >= need
        }
      // Refinement Method 1: degree-d peel on Class-1 layers (a direct
      // Dcc.compute, so dccCalls leaves it out).
      if (m.isEmpty || afterR2.isEmpty) afterR2
      else Dcc.compute(graph, m.map(order).toArray, d, afterR2)
    }

    // ---- TD-Gen (Fig. 8); RefineC (Fig. 10) is `peel` of U_{L'} ----------
    def tdGen(L: List[Int], uL: Array[Int]): Unit = {
      val refined = removable(L).map { j =>
        val lPrime = L.filterNot(_ == j)
        (lPrime, refineU(uL, lPrime))
      }
      if (topk.size < k) {
        refined.foreach { case (lPrime, u) =>
          if (lPrime.length == s) offer(lPrime, peel(lPrime, u))
          else tdGen(lPrime, u)
        }
      } else {
        val sorted = refined.sortBy { case (_, u) => -u.length }
        val brk = new Breaks
        brk.breakable {
          sorted.foreach { case (lPrime, u) =>
            if (u.length < topk.orderPruneThreshold) brk.break() // Lemma 6
            if (lPrime.length == s) offer(lPrime, peel(lPrime, u))
            else if (topk.satisfiesEq1(u)) { // Lemma 5 gate on the subtree
              val c = peel(lPrime, u)
              val rem = removable(lPrime)
              val toDrop = lPrime.length - s
              if (topk.satisfiesEq1(c) && u.length < topk.eq2Threshold &&
                  rem.length >= toDrop) {
                // Lemma 7: one random depth-s descendant suffices.
                val drop = rng.shuffle(rem).take(toDrop).toSet
                val sSet = lPrime.filterNot(drop)
                offer(sSet, peel(sSet, u))
              } else tdGen(lPrime, u)
            }
          }
        }
      }
    }

    // Lines 4-5: the root's d-CC is a candidate only when s = l; below
    // that, TD-Gen starts from the survivors and never reads it.
    val allPos = (0 until l).toList
    if (s == l) offer(allPos, peel(allPos, search.survivors))
    else tdGen(allPos, search.survivors)
    search.output
  }
}
