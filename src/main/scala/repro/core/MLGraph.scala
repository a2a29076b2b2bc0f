package repro.core

import java.util.concurrent.ForkJoinPool

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
    * self-loops are dropped, orientation normalized. An edge whose layer
    * is outside `0 until numLayers`, or an end outside
    * `0 until numVertices`, throws `IllegalArgumentException`; when several
    * are, the first in input order is the one reported.
    *
    * Three stages, each a loop on the common fork-join pool:
    *  1. Read. An indexed input (`Array`, `ArrayBuffer`, `Vector`) is cut
    *     into P contiguous chunks, P = the pool's parallelism + 1 (the JDK
    *     reports a parallelism of 0 as 1), at most one per edge. Each
    *     chunk unboxes its edges into one flat array of
    *     (layer, u, v) ints at the edges' own indices, a self-loop as
    *     layer −1, and counts its edges per layer. Any other input may be
    *     single-pass: it is read as it comes, in one chunk, into a buffer
    *     sized from `knownSize` (doubled when the size is unknown).
    *  2. Bucket. A prefix sum over (layer, chunk) gives each chunk a cursor
    *     into each layer's slice of one array of (u, v) pairs; each chunk
    *     copies its pairs there, so a layer's slice is in input order.
    *  3. Layers. One task per layer counts its row lengths, scatters each
    *     row upward in input order, then sorts, de-duplicates and compacts
    *     the rows in place. Input in `edgeTriples` order thus gives rows
    *     that are already ascending, which the sort passes over in linear
    *     time.
    * Transient space: 3m ints read, 2m ints of pairs and 3·P·l counts
    * and cursors (each chunk counts and advances its own l).
    */
  def fromEdges(numLayers: Int, numVertices: Int,
                edges: IterableOnce[(Int, Int, Int)]): MLGraph = edges match {
    case seq: collection.IndexedSeq[(Int, Int, Int)] @unchecked if seq.length <= MaxEdges =>
      val chunks = math.min(ForkJoinPool.getCommonPoolParallelism + 1, seq.length)
      fromIndexed(numLayers, numVertices, seq, math.max(chunks, 1))
    case _ =>
      val (flat, m, counts) = readAll(numLayers, numVertices, edges)
      assemble(numLayers, numVertices, flat, m, counts, 1)
  }

  /** The most edges whose flat (layer, u, v) ints fit in one array. */
  private val MaxEdges = (Int.MaxValue - 8) / 3

  /** [[fromEdges]] on an indexed input read in `chunks` chunks. A bad
    * edge is not thrown from a pool task, which would re-wrap the error:
    * each chunk stops at its first and returns its index, and the first
    * index found over the chunks, in input order, is thrown here.
    */
  private[core] def fromIndexed(numLayers: Int, numVertices: Int,
                                edges: collection.IndexedSeq[(Int, Int, Int)],
                                chunks: Int): MLGraph = {
    val m = edges.length
    val flat = new Array[Int](3 * m)
    val counts = new Array[Int](chunks * numLayers)
    val bad = Par.tabulate(chunks) { c =>
      readChunk(edges, bound(c, m, chunks), bound(c + 1, m, chunks), flat, counts,
                c * numLayers, numLayers, numVertices)
    }
    bad.find(_ >= 0).foreach(e => check(edges(e), numLayers, numVertices))
    assemble(numLayers, numVertices, flat, m, counts, chunks)
  }

  /** First edge of chunk `c` of `chunks` over `m` edges. */
  private def bound(c: Int, m: Int, chunks: Int): Int = (c.toLong * m / chunks).toInt

  /** Throws the error of edge `t`, if it has one. */
  private def check(t: (Int, Int, Int), numLayers: Int, numVertices: Int): Unit = {
    require(t._1 >= 0 && t._1 < numLayers, s"bad layer ${t._1}")
    require(t._2 >= 0 && t._2 < numVertices && t._3 >= 0 && t._3 < numVertices,
      s"bad edge (${t._2},${t._3})")
  }

  /** Writes edge `t` to `flat(k until k + 3)` as (layer, u, v), a
    * self-loop with layer −1, and counts any other edge in
    * `counts(layer)`. Returns false, writing nothing, for an edge
    * [[check]] rejects.
    */
  private def put(t: (Int, Int, Int), k: Int, flat: Array[Int], counts: Array[Int],
                  numLayers: Int, numVertices: Int): Boolean = {
    val li = t._1; val u = t._2; val v = t._3 // not `val (li, u, v) = t`, which re-boxes
    if (li < 0 || li >= numLayers || u < 0 || u >= numVertices || v < 0 || v >= numVertices) false
    else {
      if (u == v) flat(k) = -1
      else {
        flat(k) = li; flat(k + 1) = u; flat(k + 2) = v
        counts(li) += 1
      }
      true
    }
  }

  /** Reads `edges(lo until hi)` into `flat` at their own indices and its
    * per-layer counts into `counts(base until base + l)`; returns the
    * index of the first bad edge, or −1. The chunk counts in an array of
    * its own, as chunks that shared cache lines of `counts` would slow
    * each other down.
    */
  private def readChunk(edges: collection.IndexedSeq[(Int, Int, Int)], lo: Int, hi: Int,
                        flat: Array[Int], counts: Array[Int], base: Int,
                        numLayers: Int, numVertices: Int): Int = {
    val own = new Array[Int](numLayers)
    var e = lo
    while (e < hi) {
      if (!put(edges(e), 3 * e, flat, own, numLayers, numVertices)) return e
      e += 1
    }
    System.arraycopy(own, 0, counts, base, numLayers)
    -1
  }

  /** Reads a possibly single-pass input in one chunk; returns the flat
    * ints, the edge count and the per-layer counts.
    */
  private def readAll(numLayers: Int, numVertices: Int,
                      edges: IterableOnce[(Int, Int, Int)]): (Array[Int], Int, Array[Int]) = {
    val known = edges.knownSize
    var flat = new Array[Int](if (known >= 0 && known <= MaxEdges) 3 * known else 48)
    val counts = new Array[Int](numLayers)
    var len = 0
    val it = edges.iterator
    while (it.hasNext) {
      val t = it.next()
      if (len + 3 > flat.length)
        flat = java.util.Arrays.copyOf(flat, math.min(2L * flat.length + 48, Int.MaxValue - 8L).toInt)
      if (!put(t, len, flat, counts, numLayers, numVertices)) check(t, numLayers, numVertices)
      len += 3
    }
    (flat, len / 3, counts)
  }

  /** Stages 2 and 3 on the `m` edges read into `flat` by `chunks` chunks,
    * with `counts(c·l + li)` = chunk c's edges on layer li.
    */
  private def assemble(numLayers: Int, numVertices: Int, flat: Array[Int], m: Int,
                       counts: Array[Int], chunks: Int): MLGraph = {
    val start = cursors(counts, numLayers, chunks)
    val pairs = new Array[Int](2 * start(numLayers))
    Par.tabulate(chunks) { c =>
      bucket(flat, bound(c, m, chunks), bound(c + 1, m, chunks), pairs, counts, c * numLayers,
             numLayers)
    }
    val rows = Par.tabulate(numLayers)(li => layerRows(pairs, start(li), start(li + 1), numVertices))
    new MLGraph(numLayers, numVertices, rows.map(_._1), rows.map(_._2))
  }

  /** Turns each count `counts(c·l + li)` into chunk c's first pair of
    * layer li: the layers one after another, and within a layer the
    * chunks in input order. Returns each layer's first pair, and the total
    * at index l.
    */
  private def cursors(counts: Array[Int], numLayers: Int, chunks: Int): Array[Int] = {
    val start = new Array[Int](numLayers + 1)
    var sum = 0
    var li = 0
    while (li < numLayers) {
      start(li) = sum
      var k = li
      while (k < counts.length) { val c = counts(k); counts(k) = sum; sum += c; k += numLayers }
      li += 1
    }
    start(numLayers) = sum
    start
  }

  /** Copies the (u, v) pairs of `flat`'s edges `lo until hi` to their
    * layers' cursors, starting from `first(base + layer)`; the chunk
    * advances a copy of its own, as in [[readChunk]].
    */
  private def bucket(flat: Array[Int], lo: Int, hi: Int, pairs: Array[Int],
                     first: Array[Int], base: Int, numLayers: Int): Unit = {
    val cursor = java.util.Arrays.copyOfRange(first, base, base + numLayers)
    var k = 3 * lo
    val end = 3 * hi
    while (k < end) {
      val li = flat(k)
      if (li >= 0) {
        val p = 2 * cursor(li)
        pairs(p) = flat(k + 1); pairs(p + 1) = flat(k + 2)
        cursor(li) += 1
      }
      k += 3
    }
  }

  /** One layer's CSR (offsets, targets) from its pairs `lo until hi`. */
  private def layerRows(pairs: Array[Int], lo: Int, hi: Int,
                        numVertices: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](numVertices + 1)
    countRows(pairs, 2 * lo, 2 * hi, off)
    var v = 1
    while (v <= numVertices) { off(v) += off(v - 1); v += 1 }
    val tgt = new Array[Int](off(numVertices))
    scatterRows(pairs, 2 * lo, 2 * hi, off, tgt)
    (off, compactRows(off, tgt, numVertices))
  }

  /** Adds each end in `pairs(lo until hi)` to the length of its row, kept
    * one slot up in `off`.
    */
  private def countRows(pairs: Array[Int], lo: Int, hi: Int, off: Array[Int]): Unit = {
    var p = lo
    while (p < hi) { off(pairs(p) + 1) += 1; p += 1 }
  }

  /** Fills each row upward from its start `off(v)` in pair order, leaving
    * `off(v)` at the row's end.
    */
  private def scatterRows(pairs: Array[Int], lo: Int, hi: Int,
                          off: Array[Int], tgt: Array[Int]): Unit = {
    var p = lo
    while (p < hi) {
      val u = pairs(p); val v = pairs(p + 1)
      tgt(off(u)) = v; off(u) += 1
      tgt(off(v)) = u; off(v) += 1
      p += 2
    }
  }

  /** Sorts and de-duplicates each row in place, moving it down over the
    * duplicates dropped before it. Reads each row's end from `off(v)`
    * (see [[scatterRows]]) before it writes the row's final start there;
    * returns the targets, trimmed.
    */
  private def compactRows(off: Array[Int], tgt: Array[Int], numVertices: Int): Array[Int] = {
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
