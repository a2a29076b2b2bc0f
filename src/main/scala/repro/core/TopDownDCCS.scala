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
  * Layers are sorted ascending by |C^d(G_i)| (Section V-D). 1/4-approximate
  * (Theorem 4). Intended for s ≥ l/2 but correct for any s.
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

  final case class Config(vertexDeletion: Boolean = true,
                          sortLayers: Boolean = true,
                          initTopK: Boolean = true)

  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Config = Config()): GreedyDCCS.Output = {
    require(s >= 1 && s <= g.numLayers, s"s=$s out of range 1..${g.numLayers}")
    val t0 = System.nanoTime()
    val l = g.numLayers
    val rng = new scala.util.Random(42L) // Lemma 7's random descendant
    var dccCalls = 0
    var candidates = 0

    // Lines 1-8 of BU-DCCS: vertex deletion (+ InitTopK below).
    val pre = Preprocess.vertexDeletion(g, d, s, cfg.vertexDeletion)
    dccCalls += l * pre.rounds

    // Line 2 of TD-DCCS: ascending order of |C^d(G_i)|.
    val order: Array[Int] =
      if (cfg.sortLayers) (0 until l).sortBy(i => pre.layerCores(i).length).toArray
      else Array.range(0, l)
    val cores: Array[Array[Int]] = order.map(pre.layerCores)
    val coreBits: Array[java.util.BitSet] = cores.map { c =>
      val bs = new java.util.BitSet(g.numVertices); c.foreach(bs.set); bs
    }

    val topk = new TopKDiversified(k)

    def mkCore(positions: Seq[Int], vs: Array[Int]): Core =
      Core(positions.map(order).sorted.toVector, vs)

    // InitTopK (Appendix D).
    if (cfg.initTopK) {
      TopKDiversified.initTopK(g, d, s, order, cores, topk)
      dccCalls += k; candidates += k
    }

    // ---- RefineU (Fig. 9) -------------------------------------------------
    def refineU(u: Array[Int], lPrime: List[Int]): Array[Int] = {
      val comp = (0 until l).filterNot(lPrime.contains)
      val maxC = comp.max // comp nonempty: refineU only called for |L'| < l
      val m = lPrime.filter(_ < maxC)
      val nCls = lPrime.filter(_ > maxC)
      // Refinement Method 2 (support count over Class-2 cores) — core
      // membership is static, so one pass reaches the fixpoint.
      val need = s - m.length
      val afterR2 =
        if (need <= 0 || nCls.isEmpty) u
        else u.filter { v =>
          var c = 0
          nCls.foreach(j => if (coreBits(j).get(v)) c += 1)
          c >= need
        }
      // Refinement Method 1: degree-d peel on Class-1 layers.
      if (m.isEmpty || afterR2.isEmpty) afterR2
      else Dcc.compute(g, m.map(order).toArray, d, afterR2)
    }

    // ---- RefineC (Fig. 10, without the index — see deviation note above) --
    def refineC(u: Array[Int], lPrime: List[Int]): Array[Int] = {
      dccCalls += 1
      val lpArr = lPrime.toArray.sorted
      if (u.isEmpty) Array.empty[Int]
      else Dcc.compute(g, lpArr.map(order), d, u)
    }

    // ---- TD-Gen (Fig. 8) --------------------------------------------------
    def tdGen(L: List[Int], uL: Array[Int]): Unit = {
      val comp = (0 until l).filterNot(L.contains)
      val maxComp = if (comp.isEmpty) -1 else comp.max
      val lR = L.filter(_ > maxComp)
      val refined = lR.map { j =>
        val lPrime = L.filterNot(_ == j)
        (j, lPrime, refineU(uL, lPrime))
      }
      if (topk.size < k) {
        refined.foreach { case (_, lPrime, u) =>
          if (lPrime.length == s) {
            val c = refineC(u, lPrime)
            candidates += 1
            topk.tryUpdate(mkCore(lPrime, c))
          } else tdGen(lPrime, u)
        }
      } else {
        val sorted = refined.sortBy { case (_, _, u) => -u.length }
        val brk = new Breaks
        brk.breakable {
          sorted.foreach { case (_, lPrime, u) =>
            if (u.length < topk.orderPruneThreshold) brk.break() // Lemma 6
            if (lPrime.length == s) {
              val c = refineC(u, lPrime)
              candidates += 1
              topk.tryUpdate(mkCore(lPrime, c))
            } else if (topk.satisfiesEq1(u)) { // Lemma 5 gate on the subtree
              val c = refineC(u, lPrime)
              val removable = {
                val compP = (0 until l).filterNot(lPrime.contains)
                val maxCp = if (compP.isEmpty) -1 else compP.max
                lPrime.filter(_ > maxCp)
              }
              val toDrop = lPrime.length - s
              if (topk.satisfiesEq1(c) && u.length < topk.eq2Threshold &&
                  removable.length >= toDrop) {
                // Lemma 7: one random depth-s descendant suffices.
                val drop = rng.shuffle(removable).take(toDrop).toSet
                val sSet = lPrime.filterNot(drop)
                dccCalls += 1; candidates += 1
                val cS =
                  if (u.isEmpty) Array.empty[Int]
                  else Dcc.compute(g, sSet.map(order).toArray, d, u)
                topk.tryUpdate(mkCore(sSet, cS))
              } else tdGen(lPrime, u)
            }
          }
        }
      }
    }

    // Lines 4-5: root core + search.
    val allPos = (0 until l).toList
    dccCalls += 1
    val cRoot =
      if (pre.active.isEmpty) Array.empty[Int]
      else Dcc.compute(g, order.clone(), d, pre.active)
    if (s == l) { candidates += 1; topk.tryUpdate(mkCore(allPos, cRoot)) }
    else tdGen(allPos, pre.active)

    GreedyDCCS.Output(topk.result, topk.covSize,
      GreedyDCCS.Stats(dccCalls, candidates,
                       (System.nanoTime() - t0) / 1000000L))
  }
}
