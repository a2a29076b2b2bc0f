package repro.core

/** Bitsets over the local ids of the survivors A: a set of ids below 64·w
  * is w longs, id x is bit x % 64 of word x / 64. [[Preprocess.Survivors]]
  * holds the layer cores this way for GD, TD and InitTopK; GD also holds
  * its Lemma-1 bounds and candidate d-CCs so, and peels a candidate on
  * bit rows: x's row on layer i is the bitset of x's neighbours in A on
  * layer i, so x's degree inside a set B is `Σ_w popcount(row(w) & B(w))`.
  */
private[core] object Bits {

  /** `xs` (ids below 64·words) as a bitset of `words` longs. */
  def bitset(xs: Array[Int], words: Int): Array[Long] = {
    val bits = new Array[Long](words)
    var k = 0
    while (k < xs.length) { bits(xs(k) >>> 6) |= 1L << xs(k); k += 1 }
    bits
  }

  /** Lemma 1's bound of the layer set `combo`, `∩_{i∈L} C_i`, as the AND of
    * its layer cores' bitsets.
    */
  def bound(coreBits: Array[Array[Long]], combo: IndexedSeq[Int]): Array[Long] = {
    val b = coreBits(combo(0)).clone()
    var j = 1
    while (j < combo.length) {
      val c = coreBits(combo(j))
      var w = 0
      while (w < b.length) { b(w) &= c(w); w += 1 }
      j += 1
    }
    b
  }

  /** Is a bound of `size` members as large as each of the layer cores of
    * `combo`, and so its own d-CC? `B ⊆ C_i`, so `|B| = |C_i|` means
    * `B = C_i`, which is d-dense on layer i; dense on every layer of L, B
    * is the largest such set inside the bound.
    */
  def dense(cores: Array[Array[Int]], combo: IndexedSeq[Int], size: Int): Boolean =
    combo.forall(cores(_).length == size)

  def popcount(bits: Array[Long]): Int = {
    var n = 0
    var w = 0
    while (w < bits.length) { n += java.lang.Long.bitCount(bits(w)); w += 1 }
    n
  }

  /** Is id x a member of `bits`? */
  def has(bits: Array[Long], x: Int): Boolean = (bits(x >>> 6) & (1L << x)) != 0

  /** |a \ b|, the popcount of `a & ~b` over a's words. */
  def andNotCount(a: Array[Long], b: Array[Long]): Int = {
    var n = 0
    var w = 0
    while (w < a.length) { n += java.lang.Long.bitCount(a(w) & ~b(w)); w += 1 }
    n
  }

  /** The members of a bitset, ascending. */
  def decode(bits: Array[Long]): Array[Int] = {
    val out = new Array[Int](popcount(bits))
    var n = 0
    var w = 0
    while (w < bits.length) {
      var word = bits(w)
      while (word != 0) {
        out(n) = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
        n += 1
        word &= word - 1
      }
      w += 1
    }
    out
  }

  /** The bit rows of the survivors `ids` (sorted ids of `g`, so local id x
    * is `ids(x)`): `rows(i)(x)` is x's row on layer i inside A, `words`
    * longs, for each member x of the layer core `layerCores(i)` (local
    * ids), and null for any other x. Read straight from g's rows through
    * one zeroed n-int id map, the layers on the common fork-join pool; G[A]
    * is not built. Σ_i |C_i|·words longs.
    */
  def rows(g: MLGraph, ids: Array[Int], layerCores: Array[Array[Int]],
           words: Int): Array[Array[Array[Long]]] = {
    val loc = new Array[Int](g.numVertices) // 1 + local id, 0 outside A
    var x = 0
    while (x < ids.length) { loc(ids(x)) = x + 1; x += 1 }
    Par.tabulate(layerCores.length)(i => layerRows(g.offsets(i), g.targets(i), ids, loc,
                                                   layerCores(i), words))
  }

  private def layerRows(off: Array[Int], tgt: Array[Int], ids: Array[Int], loc: Array[Int],
                        core: Array[Int], words: Int): Array[Array[Long]] = {
    val out = new Array[Array[Long]](ids.length)
    var k = 0
    while (k < core.length) {
      val x = core(k)
      val row = new Array[Long](words)
      val v = ids(x)
      var j = off(v)
      val hi = off(v + 1)
      while (j < hi) {
        val y = loc(tgt(j)) - 1
        if (y >= 0) row(y >>> 6) |= 1L << y
        j += 1
      }
      out(x) = row
      k += 1
    }
    out
  }

  /** Peels `b` in place to its d-CC on `layers` and returns it; every
    * member of `b` must lie in the layer core of every layer of `layers`,
    * so that it has a row there. Three steps: count each member's degree in
    * `b` on each layer, `Σ_w popcount(row(w) & b(w))`; kill (clear the bit
    * of) every member with a degree below d; then, for each killed vertex,
    * walk `row & b` word by word and decrement its live neighbours, killing
    * each one whose degree falls below d. The d-CC is unique, so the result
    * is the bitset of `Dcc.compute(G[A], layers, d, decode(b))`. Costs
    * O(|L|·|b|·words) words to count, plus |L|·words per killed vertex.
    */
  def peel(rows: Array[Array[Array[Long]]], layers: Array[Int], d: Int,
           b: Array[Long]): Array[Long] = {
    val words = b.length
    val nl = layers.length
    val members = decode(b)
    val m = members.length
    // deg(li * m + pos(y)): the degree on layers(li) of the member y
    val pos = new Array[Int](words << 6)
    val deg = new Array[Int](nl * m)
    val stack = new Array[Int](m)
    var top = 0
    var k = 0
    while (k < m) {
      val x = members(k)
      pos(x) = k
      var low = false
      var li = 0
      while (li < nl) {
        val row = rows(layers(li))(x)
        var c = 0
        var w = 0
        while (w < words) { c += java.lang.Long.bitCount(row(w) & b(w)); w += 1 }
        deg(li * m + k) = c
        low |= c < d
        li += 1
      }
      if (low) { stack(top) = x; top += 1 }
      k += 1
    }
    // the kill pass: the counts above are all taken on the unpeeled b
    k = 0
    while (k < top) { val x = stack(k); b(x >>> 6) &= ~(1L << x); k += 1 }

    while (top > 0) {
      top -= 1
      val x = stack(top)
      var li = 0
      while (li < nl) {
        val row = rows(layers(li))(x)
        val base = li * m
        var w = 0
        while (w < words) {
          var word = row(w) & b(w)
          while (word != 0) {
            val y = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
            word &= word - 1
            val p = base + pos(y)
            deg(p) -= 1
            if (deg(p) < d) { b(y >>> 6) &= ~(1L << y); stack(top) = y; top += 1 }
          }
          w += 1
        }
        li += 1
      }
    }
    b
  }
}
