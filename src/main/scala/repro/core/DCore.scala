package repro.core

/** Single-layer d-cores `C^d(G_i)` (Batagelj-Zaversnik [3]); by
  * definition `C^d(G_i) = C^d_{{i}}(G)`, the one-layer case of [[Dcc]].
  *
  * Over the whole vertex set the d-cores of every d are nested, so one
  * core decomposition per layer ([[MLGraph.coreNumbers]]) answers them all:
  * `C^d(G_i) = { v : core_i(v) ≥ d }`, which [[allLayers]] reads. Inside a
  * vertex subset, [[Preprocess.vertexDeletion]] peels each layer itself.
  */
object DCore {

  /** d-cores of every layer over the whole graph, each sorted: the
    * threshold `{ v : g.coreNumbers(i)(v) ≥ d }` (every vertex when d ≤ 0,
    * as in [[Dcc.compute]]), the l layers on the common fork-join pool,
    * each into its own slot.
    */
  def allLayers(g: MLGraph, d: Int): Array[Array[Int]] = {
    val cn = g.coreNumbers
    Par.tabulate(g.numLayers)(i => atLeast(cn(i), d))
  }

  /** Ids `v` with `core(v) >= d`, ascending. */
  private def atLeast(core: Array[Int], d: Int): Array[Int] = {
    var c = 0
    var v = 0
    while (v < core.length) { if (core(v) >= d) c += 1; v += 1 }
    val out = new Array[Int](c)
    c = 0
    v = 0
    while (v < core.length) { if (core(v) >= d) { out(c) = v; c += 1 }; v += 1 }
    out
  }

  /** Core number of every vertex on one layer, given as the layer's CSR
    * rows (see [[MLGraph]]): the largest d with `v ∈ C^d(G_i)`.
    * Batagelj-Zaversnik bin sort, O(n + m_i): vertices sit in an array
    * ordered by current degree, `start(k)` marks where degree `k` begins,
    * and each processed vertex moves every neighbour of higher degree one
    * bin down.
    */
  private[core] def coreNumbers(offsets: Array[Int], targets: Array[Int]): Array[Int] = {
    val n = offsets.length - 1
    val deg = new Array[Int](n)
    var maxDeg = 0
    var v = 0
    while (v < n) {
      deg(v) = offsets(v + 1) - offsets(v)
      if (deg(v) > maxDeg) maxDeg = deg(v)
      v += 1
    }
    // start(k): first slot of degree k in `vert`; pos(v): slot of v.
    val start = new Array[Int](maxDeg + 1)
    v = 0
    while (v < n) { start(deg(v)) += 1; v += 1 }
    var sum = 0
    var k = 0
    while (k <= maxDeg) { val c = start(k); start(k) = sum; sum += c; k += 1 }
    val vert = new Array[Int](n)
    val pos = new Array[Int](n)
    v = 0
    while (v < n) {
      pos(v) = start(deg(v)); vert(pos(v)) = v; start(deg(v)) += 1
      v += 1
    }
    k = maxDeg // placing moved each start one bin up: move it back
    while (k > 0) { start(k) = start(k - 1); k -= 1 }
    start(0) = 0

    var i = 0
    while (i < n) {
      val x = vert(i)
      var j = offsets(x)
      val hi = offsets(x + 1)
      while (j < hi) {
        val u = targets(j)
        if (deg(u) > deg(x)) {
          // swap u with the first vertex of its bin, then shrink that bin
          val du = deg(u)
          val pu = pos(u)
          val pw = start(du)
          val w = vert(pw)
          pos(u) = pw; vert(pu) = w; pos(w) = pu; vert(pw) = u
          start(du) += 1
          deg(u) = du - 1
        }
        j += 1
      }
      i += 1
    }
    deg
  }
}
