package repro.core

import scala.collection.mutable

/** Immutable in-memory multi-layer graph `G = (V, E_1, ..., E_l)`.
  *
  * Vertices are dense integer ids `0 until numVertices`; every layer shares
  * the vertex set (vertices missing from a layer are simply isolated there,
  * as in Section II of the paper). `adj(layer)(v)` is the sorted, distinct
  * neighbor list of `v` on that layer; edges are undirected.
  */
final class MLGraph private (
    val numLayers: Int,
    val numVertices: Int,
    val adj: Array[Array[Array[Int]]],
) {

  /** Degree of `v` on `layer` in the full graph. */
  def degree(layer: Int, v: Int): Int = adj(layer)(v).length

  /** Sorted neighbor ids of `v` on `layer`. */
  def neighbors(layer: Int, v: Int): Array[Int] = adj(layer)(v)

  /** Number of undirected edges on `layer`. */
  def edgeCount(layer: Int): Long =
    adj(layer).iterator.map(_.length.toLong).sum / 2

  /** Sum of per-layer edge counts (an edge on two layers counts twice). */
  def totalEdgeCount: Long = (0 until numLayers).map(edgeCount).sum

  /** Union adjacency across all layers (distinct neighbors on any layer),
    * each list sorted: the l sorted lists of a vertex merged one by one.
    */
  lazy val unionAdj: Array[Array[Int]] =
    Array.tabulate(numVertices) { v =>
      (0 until numLayers).foldLeft(Array.emptyIntArray)((acc, i) =>
        SetOps.union(acc, adj(i)(v)))
    }

  /** `coreNumbers(i)(v)`: the largest d with `v ∈ C^d(G_i)` (0 for a vertex
    * isolated on layer i). One Batagelj-Zaversnik decomposition per layer,
    * run on first use on the common fork-join pool; l·n ints for the
    * graph's lifetime.
    */
  lazy val coreNumbers: Array[Array[Int]] =
    Par.tabulate(numLayers)(i => DCore.coreNumbers(adj(i)))

  /** Number of distinct undirected edges across all layers. */
  def unionEdgeCount: Long = unionAdj.iterator.map(_.length.toLong).sum / 2

  /** Multi-layer subgraph keeping only the given layers (in given order). */
  def selectLayers(layers: Seq[Int]): MLGraph =
    new MLGraph(layers.length, numVertices, layers.map(adj).toArray)

  /** Induced subgraph on `vertices` with ids re-densified to 0..m-1.
    * Returns the subgraph and the old-id of each new id. The relabelling is
    * monotone, so filtering each sorted list keeps it sorted; the layers are
    * built on the common fork-join pool, each into its own slot.
    */
  def induced(vertices: Array[Int]): (MLGraph, Array[Int]) = {
    val old = vertices.sorted.distinct
    val m = old.length
    // newId(v) = 1 + new id of v, 0 outside the subset
    val newId = new Array[Int](numVertices)
    var x = 0
    while (x < m) { newId(old(x)) = x + 1; x += 1 }
    val sub = Par.tabulate(numLayers) { li =>
      val lists = adj(li)
      Array.tabulate(m) { x =>
        val ns = lists(old(x))
        var c = 0
        var j = 0
        while (j < ns.length) { if (newId(ns(j)) != 0) c += 1; j += 1 }
        if (c == 0) Array.emptyIntArray
        else {
          val out = new Array[Int](c)
          c = 0
          j = 0
          while (j < ns.length) {
            val y = newId(ns(j))
            if (y != 0) { out(c) = y - 1; c += 1 }
            j += 1
          }
          out
        }
      }
    }
    (new MLGraph(numLayers, m, sub), old)
  }

  /** All undirected edges as (layer, u, v) with u < v. */
  def edgeTriples: Iterator[(Int, Int, Int)] =
    for {
      li <- (0 until numLayers).iterator
      u  <- (0 until numVertices).iterator
      w  <- adj(li)(u).iterator
      if u < w
    } yield (li, u, w)
}

object MLGraph {

  /** Build from undirected edge triples (layer, u, v); duplicates and
    * self-loops are dropped, orientation normalized.
    */
  def fromEdges(numLayers: Int, numVertices: Int,
                edges: IterableOnce[(Int, Int, Int)]): MLGraph = {
    // The input may be single-pass: buffer the edges (minus self-loops) as
    // flat (layer, u, v) ints while counting each endpoint's list length.
    val buf = new mutable.ArrayBuilder.ofInt
    val deg = Array.ofDim[Int](numLayers, numVertices)
    val it = edges.iterator
    while (it.hasNext) {
      val t = it.next() // not `val (li, u, v) = ...`, which re-boxes a tuple
      val li = t._1; val u = t._2; val v = t._3
      require(li >= 0 && li < numLayers, s"bad layer $li")
      require(u >= 0 && u < numVertices && v >= 0 && v < numVertices, s"bad edge ($u,$v)")
      if (u != v) {
        buf.addOne(li).addOne(u).addOne(v)
        deg(li)(u) += 1; deg(li)(v) += 1
      }
    }
    val flat = buf.result()

    // Scatter both orientations (deg(li)(v) counts down to 0 as the list of
    // v on li fills), then sort and de-duplicate each list.
    val adj = Array.ofDim[Array[Int]](numLayers, numVertices)
    var li = 0
    while (li < numLayers) {
      var v = 0
      while (v < numVertices) {
        val c = deg(li)(v)
        adj(li)(v) = if (c == 0) Array.emptyIntArray else new Array[Int](c)
        v += 1
      }
      li += 1
    }
    var e = 0
    while (e < flat.length) {
      val li = flat(e); val u = flat(e + 1); val v = flat(e + 2)
      deg(li)(u) -= 1; adj(li)(u)(deg(li)(u)) = v
      deg(li)(v) -= 1; adj(li)(v)(deg(li)(v)) = u
      e += 3
    }
    // Layers own disjoint lists: sort them on the common fork-join pool.
    val sorted = Par.tabulate(numLayers) { li =>
      val lists = adj(li)
      var v = 0
      while (v < numVertices) {
        val ns = lists(v)
        if (ns.length > 1) {
          java.util.Arrays.sort(ns)
          var w = 1
          var r = 1
          while (r < ns.length) {
            if (ns(r) != ns(w - 1)) { ns(w) = ns(r); w += 1 }
            r += 1
          }
          if (w < ns.length) lists(v) = java.util.Arrays.copyOf(ns, w)
        }
        v += 1
      }
      lists
    }
    new MLGraph(numLayers, numVertices, sorted)
  }

  /** Empty graph. */
  def empty(numLayers: Int, numVertices: Int): MLGraph =
    fromEdges(numLayers, numVertices, Iterator.empty)
}
