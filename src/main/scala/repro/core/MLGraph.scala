package repro.core

/** Immutable in-memory multi-layer graph `G = (V, E_1, ..., E_l)`.
  *
  * Vertices are dense integer ids `0 until numVertices`; every layer shares
  * the vertex set (vertices missing from a layer are simply isolated there,
  * as in Section II of the paper). Each layer is stored in compressed
  * sparse rows: the sorted, distinct neighbors of `v` on layer `i` are
  * `targets(i)(offsets(i)(v) until offsets(i)(v + 1))`; edges are
  * undirected, so each is stored in both endpoints' rows.
  */
final class MLGraph private (
    val numLayers: Int,
    val numVertices: Int,
    private[repro] val offsets: Array[Array[Int]],
    private[repro] val targets: Array[Array[Int]],
) {

  /** Degree of `v` on `layer` in the full graph. */
  def degree(layer: Int, v: Int): Int = offsets(layer)(v + 1) - offsets(layer)(v)

  /** Sorted neighbor ids of `v` on `layer` (a copy of its row). */
  def neighbors(layer: Int, v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(targets(layer), offsets(layer)(v), offsets(layer)(v + 1))

  /** Number of undirected edges on `layer`. */
  def edgeCount(layer: Int): Long = targets(layer).length / 2

  /** Sum of per-layer edge counts (an edge on two layers counts twice). */
  def totalEdgeCount: Long = (0 until numLayers).map(edgeCount).sum

  /** Union adjacency across all layers (distinct neighbors on any layer),
    * each list sorted: the l rows of a vertex copied side by side, then
    * sorted and de-duplicated.
    */
  lazy val unionAdj: Array[Array[Int]] =
    Array.tabulate(numVertices) { v =>
      val all = new Array[Int]((0 until numLayers).map(degree(_, v)).sum)
      var len = 0
      for (li <- 0 until numLayers) {
        System.arraycopy(targets(li), offsets(li)(v), all, len, degree(li, v))
        len += degree(li, v)
      }
      java.util.Arrays.copyOf(all, MLGraph.sortDistinct(all, 0, len, 0))
    }

  /** `coreNumbers(i)(v)`: the largest d with `v ∈ C^d(G_i)` (0 for a vertex
    * isolated on layer i). One Batagelj-Zaversnik decomposition per layer,
    * run on first use on the common fork-join pool; l·n ints for the
    * graph's lifetime.
    */
  lazy val coreNumbers: Array[Array[Int]] =
    Par.tabulate(numLayers)(i => DCore.coreNumbers(offsets(i), targets(i)))

  /** GD's candidate family for the most recent (d, s) queried on this
    * graph (see [[GreedyDCCS]]); null before the first GD query. Each
    * family is immutable and replaces the previous one whole, so a reader
    * sees either family, never a mix.
    */
  @volatile private[core] var gdFamily: GreedyDCCS.Family = null

  /** Number of distinct undirected edges across all layers. */
  def unionEdgeCount: Long = unionAdj.iterator.map(_.length.toLong).sum / 2

  /** Multi-layer subgraph keeping only the given layers (in given order). */
  def selectLayers(layers: Seq[Int]): MLGraph =
    new MLGraph(layers.length, numVertices, layers.map(offsets).toArray,
                layers.map(targets).toArray)

  /** Induced subgraph on `vertices` with ids re-densified to 0..m-1.
    * Returns the subgraph and the old-id of each new id. The relabelling is
    * monotone, so filtering each sorted row keeps it sorted; the layers are
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
      val off = offsets(li)
      val tgt = targets(li)
      val subOff = new Array[Int](m + 1)
      var bound = 0
      var x = 0
      while (x < m) { bound += off(old(x) + 1) - off(old(x)); x += 1 }
      val subTgt = new Array[Int](bound)
      var c = 0
      x = 0
      while (x < m) {
        var j = off(old(x))
        val hi = off(old(x) + 1)
        while (j < hi) {
          val y = newId(tgt(j))
          if (y != 0) { subTgt(c) = y - 1; c += 1 }
          j += 1
        }
        subOff(x + 1) = c
        x += 1
      }
      (subOff, if (c == bound) subTgt else java.util.Arrays.copyOf(subTgt, c))
    }
    (new MLGraph(numLayers, m, sub.map(_._1), sub.map(_._2)), old)
  }

  /** All undirected edges as (layer, u, v) with u < v. */
  def edgeTriples: Iterator[(Int, Int, Int)] =
    for {
      li <- (0 until numLayers).iterator
      u  <- (0 until numVertices).iterator
      w  <- targets(li).iterator.slice(offsets(li)(u), offsets(li)(u + 1))
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
    // flat (layer, u, v) ints, in one array sized from the input when its
    // size is known and doubled otherwise, while counting the length of
    // v's row into offsets(li)(v + 1).
    val known = edges.knownSize
    var flat = new Array[Int](if (known >= 0 && known <= (Int.MaxValue - 8) / 3) 3 * known else 48)
    var len = 0
    val offsets = Array.ofDim[Int](numLayers, numVertices + 1)
    val it = edges.iterator
    while (it.hasNext) {
      val t = it.next() // not `val (li, u, v) = ...`, which re-boxes a tuple
      val li = t._1; val u = t._2; val v = t._3
      require(li >= 0 && li < numLayers, s"bad layer $li")
      require(u >= 0 && u < numVertices && v >= 0 && v < numVertices, s"bad edge ($u,$v)")
      if (u != v) {
        if (len + 3 > flat.length)
          flat = java.util.Arrays.copyOf(flat, math.min(2L * flat.length + 48, Int.MaxValue - 8L).toInt)
        flat(len) = li; flat(len + 1) = u; flat(len + 2) = v
        len += 3
        offsets(li)(u + 1) += 1; offsets(li)(v + 1) += 1
      }
    }

    // offsets(li)(v) = start of the row of v (a prefix sum over the counts);
    // the scatter fills each row upward in input order and leaves
    // offsets(li)(v) at the row's end, which the de-duplication pass below
    // reads before it writes the row's final start there. Input in
    // edgeTriples order thus gives ascending rows, which the sort passes
    // over in linear time.
    val targets = new Array[Array[Int]](numLayers)
    var li = 0
    while (li < numLayers) {
      val off = offsets(li)
      var v = 1
      while (v <= numVertices) { off(v) += off(v - 1); v += 1 }
      targets(li) = new Array[Int](off(numVertices))
      li += 1
    }
    var e = 0
    while (e < len) {
      val off = offsets(flat(e)); val tgt = targets(flat(e))
      val u = flat(e + 1); val v = flat(e + 2)
      tgt(off(u)) = v; off(u) += 1
      tgt(off(v)) = u; off(v) += 1
      e += 3
    }
    // Sort and de-duplicate each row in place, moving it down over the
    // duplicates dropped before it; layers own disjoint arrays, so they run
    // on the common fork-join pool.
    val compact = Par.tabulate(numLayers) { li =>
      val off = offsets(li)
      val tgt = targets(li)
      var lo = 0
      var w = 0
      var v = 0
      while (v < numVertices) {
        val hi = off(v)
        off(v) = w
        w = sortDistinct(tgt, lo, hi, w)
        lo = hi
        v += 1
      }
      off(numVertices) = w
      if (w == tgt.length) tgt else java.util.Arrays.copyOf(tgt, w)
    }
    new MLGraph(numLayers, numVertices, offsets, compact)
  }

  /** Sorts `a(lo until hi)` and writes its distinct values to `a` from
    * `to` (`to <= lo`) on; returns the end of what it wrote.
    */
  private def sortDistinct(a: Array[Int], lo: Int, hi: Int, to: Int): Int = {
    java.util.Arrays.sort(a, lo, hi)
    var w = to
    var r = lo
    while (r < hi) {
      if (w == to || a(r) != a(w - 1)) { a(w) = a(r); w += 1 }
      r += 1
    }
    w
  }

  /** Empty graph. */
  def empty(numLayers: Int, numVertices: Int): MLGraph =
    fromEdges(numLayers, numVertices, Iterator.empty)
}
