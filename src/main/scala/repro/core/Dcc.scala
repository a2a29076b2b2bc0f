package repro.core

/** Procedure dCC (paper Appendix B): compute the d-coherent core of a
  * multi-layer graph w.r.t. a set of layers `L`.
  *
  * Iteratively removes every vertex whose degree on *some* layer of `L`
  * (within the surviving set) is below `d`, until the remaining induced
  * subgraph is d-dense on all layers of `L`. The paper drives the peel with
  * bin-sorted `m(v) = min_i deg_i(v)` arrays; we use an equivalent
  * worklist peel over scope-local ids — identical output (the d-CC is
  * unique, Property 1). A vertex is pushed at most once (when its first
  * layer degree falls below `d`) and popped once, and each pop walks its
  * |L| adjacency lists, so a call costs one zeroed id map, sized by the
  * graph it runs on (G[A] in the searches), plus O(|L|·Σ_{v∈scope} deg(v)).
  */
object Dcc {

  /** d-CC of `g` w.r.t. `layers`, restricted to the induced subgraph on
    * `within` (`null` means all vertices; duplicates and order are
    * ignored). Returns a sorted, distinct vertex array.
    */
  def compute(g: MLGraph, layers: Array[Int], d: Int,
              within: Array[Int] = null): Array[Int] = {
    require(layers.nonEmpty, "dCC needs at least one layer")
    val n = g.numVertices
    val scope: Array[Int] =
      if (within == null) Array.range(0, n)
      else if (strictlyIncreasing(within)) within
      else within.sorted.distinct
    if (d <= 0) return scope.clone() // every vertex has degree >= 0

    val m = scope.length
    val nl = layers.length
    // local(v) = 1 + position of v in scope, 0 outside it
    val local = new Array[Int](n)
    var x = 0
    while (x < m) { local(scope(x)) = x + 1; x += 1 }

    // deg(li * m + x): degree of scope(x) within the surviving set on
    // layers(li). A vertex is marked dead when pushed; its neighbours'
    // degrees drop when it is popped.
    val deg = new Array[Int](nl * m)
    val dead = new Array[Boolean](m)
    val stack = new Array[Int](m)
    var top = 0

    val offs = layers.map(g.offsets)
    val tgts = layers.map(g.targets)
    var li = 0
    while (li < nl) {
      val off = offs(li)
      val tgt = tgts(li)
      val base = li * m
      x = 0
      while (x < m) {
        val v = scope(x)
        var c = 0
        var j = off(v)
        val hi = off(v + 1)
        while (j < hi) { c += -local(tgt(j)) >>> 31; j += 1 } // 1 inside the scope
        deg(base + x) = c
        if (c < d && !dead(x)) { dead(x) = true; stack(top) = x; top += 1 }
        x += 1
      }
      li += 1
    }

    while (top > 0) {
      top -= 1
      val v = scope(stack(top))
      li = 0
      while (li < nl) {
        val tgt = tgts(li)
        val base = li * m
        var j = offs(li)(v)
        val hi = offs(li)(v + 1)
        while (j < hi) {
          val y = local(tgt(j)) - 1
          if (y >= 0 && !dead(y)) {
            val c = deg(base + y) - 1
            deg(base + y) = c
            if (c < d) { dead(y) = true; stack(top) = y; top += 1 }
          }
          j += 1
        }
        li += 1
      }
    }

    var alive = 0
    x = 0
    while (x < m) { if (!dead(x)) alive += 1; x += 1 }
    val out = new Array[Int](alive)
    var o = 0
    x = 0
    while (x < m) { if (!dead(x)) { out(o) = scope(x); o += 1 }; x += 1 }
    out
  }

  private def strictlyIncreasing(a: Array[Int]): Boolean = {
    var i = 1
    while (i < a.length) { if (a(i - 1) >= a(i)) return false; i += 1 }
    true
  }
}
