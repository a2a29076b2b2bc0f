package repro.core

import scala.collection.mutable

/** Vertex-deletion preprocessing (BU-DCCS lines 1-7, Section IV-C).
  *
  * Round by round, removes every vertex whose support number
  * `Num(v) = |{ i : v ∈ C^d(G_i[A]) }|` is below `s`, where A is what the
  * previous round left, until a round removes nothing. Such vertices cannot
  * appear in any d-CC with |L| = s (Property 3 / Lemma 1), so this shrinks
  * the search graph without affecting any algorithm's output.
  *
  * Round 1 covers the whole graph, so its layer d-cores are thresholds of
  * the graph's cached [[MLGraph.coreNumbers]], and a vertex's support
  * number is a count of its core numbers ≥ d; no core is built. If round 1
  * removes nothing, the l thresholds are the answer. Otherwise each layer
  * sets up a peel over the pairs (i, x), x ∈ A₁, on the common fork-join
  * pool, one task per layer: the pairs with core_i(x) ≥ d start live, each
  * with its degree among them from one pass over g's rows, and the layer
  * is peeled, since the d-core of G_i[A₁] is the largest d-dense set
  * inside C^d(G_i) ∩ A₁. Each later round removes the vertices with fewer
  * than s live pairs, kills their pairs, and each layer continues its peel
  * from where it stopped: C^d(G_i[A_{r+1}]) is the largest d-dense set
  * inside C^d(G_i[A_r]) ∩ A_{r+1} (decremental core maintenance, Li, Yu
  * and Mao, TKDE 2014). So every round's survivors and layer cores, and
  * the round count, are those of the nested loop that re-peels every layer
  * inside A in each round, while a round walks only the rows of the pairs
  * that die, and a round that kills no live pair walks none.
  */
object Preprocess {

  /** @param active     surviving vertices (sorted)
    * @param layerCores d-core of each layer restricted to `active` (sorted)
    * @param rounds     number of deletion rounds executed (1 = already stable)
    */
  final case class State(active: Array[Int],
                         layerCores: Array[Array[Int]],
                         rounds: Int)

  /** Run vertex deletion; with `enabled = false` just computes the per-layer
    * d-cores once (the algorithms still need them).
    */
  def vertexDeletion(g: MLGraph, d: Int, s: Int, enabled: Boolean = true): State = {
    val n = g.numVertices
    val cn = g.coreNumbers
    val a1 = if (enabled) roundOne(cn, n, d, s) else Array.range(0, n)
    if (a1.length == n) return State(a1, DCore.allLayers(g, d), 1)

    // Round 2: each layer's d-core inside A₁
    val m = a1.length
    val loc = new Array[Int](n) // 1 + local id in A₁, 0 outside it
    var x = 0
    while (x < m) { loc(a1(x)) = x + 1; x += 1 }
    val peels = Par.tabulate(g.numLayers) { i =>
      val p = new LayerPeel(g.offsets(i), g.targets(i), d, a1, loc)
      p.start(cn(i))
      p
    }
    val num = new Array[Int](m)
    peels.foreach(_.count(num))
    val dead = new Array[Boolean](m)
    var dying = ints(m)(num(_) < s)
    var rounds = 2

    // Each later round: drop the vertices below s, kill their live pairs and
    // let each layer's peel run on; a vertex whose count falls to s - 1
    // here is dropped in the next round. Each round but the last drops at
    // least one of A₁, so there are at most |A₁| + 2 rounds.
    while (dying.length > 0) {
      rounds += 1
      if (rounds > m + 2) throw new IllegalStateException(
        s"vertexDeletion: no fixpoint after ${m + 2} rounds on $m survivors of round 1")
      dying.foreach(dead(_) = true)
      val next = new mutable.ArrayBuilder.ofInt
      peels.foreach { p =>
        var q = p.settle(dying)
        while (q < p.died) {
          val y = p.queue(q)
          num(y) -= 1
          if (!dead(y) && num(y) == s - 1) next += y
          q += 1
        }
      }
      dying = next.result()
    }

    // local ids ascend with the ids of g, so every array stays sorted
    val active = ints(m)(!dead(_))
    x = 0
    while (x < active.length) { active(x) = a1(active(x)); x += 1 }
    State(active, peels.map(_.members(active)), rounds)
  }

  /** Round 1 on the whole graph: the vertices with core ≥ d on at least s
    * layers. Each layer adds `core_i(v) ≥ d` to every vertex's count in one
    * pass, and the survivors are picked in another, all without a branch
    * per vertex (core numbers and counts are ≥ 0, so d, s ≤ 0 act as 0).
    */
  private def roundOne(cn: Array[Array[Int]], n: Int, d: Int, s: Int): Array[Int] = {
    val dd = math.max(d, 0)
    val ss = math.max(s, 0)
    val num = new Array[Int](n)
    cn.foreach { core =>
      var v = 0
      while (v < n) { num(v) += (dd - 1 - core(v)) >>> 31; v += 1 }
    }
    val out = new Array[Int](n)
    var c = 0
    var v = 0
    while (v < n) { out(c) = v; c += (ss - 1 - num(v)) >>> 31; v += 1 }
    java.util.Arrays.copyOf(out, c)
  }

  /** The x in `0 until m` with `p(x)`, ascending. */
  private def ints(m: Int)(p: Int => Boolean): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var x = 0
    while (x < m) { if (p(x)) out += x; x += 1 }
    out.result()
  }

  /** One layer's d-core peel inside A₁ (`ids`, so local id x is `ids(x)`;
    * `loc(v)` is 1 + the local id of v, 0 outside A₁). Bit v of `live`, over
    * the ids of g, is set while v is in the layer's d-core inside the
    * current survivors, so a neighbour's test reads one of n / 64 words
    * that stay in cache, and a degree is counted without a branch;
    * `deg(x)` counts x's neighbours that are live or queued. Every pair that
    * dies is appended to `queue` and stays there, so `queue(from until
    * died)` are the pairs one [[settle]] killed; each pair dies once, so
    * |A₁| slots do.
    */
  private final class LayerPeel(off: Array[Int], tgt: Array[Int],
                                d: Int, ids: Array[Int], loc: Array[Int]) {
    private val live = new Array[Long]((loc.length + 63) >>> 6)
    private val deg = new Array[Int](ids.length)
    val queue = new Array[Int](ids.length)
    var died = 0
    private var head = 0

    /** 1 if v is live, else 0. */
    private def bit(v: Int): Int = (live(v >>> 6) >>> v).toInt & 1

    private def kill(x: Int): Unit = {
      val v = ids(x)
      live(v >>> 6) &= ~(1L << v)
      queue(died) = x
      died += 1
    }

    /** Round 2: the pairs with `core(ids(x)) >= d` start live, each with
      * its degree among them; the ones below d die at once, and the peel
      * runs to the layer's d-core inside A₁. Kept out of the constructor:
      * there, on JDK 17, these loops ran about 20 times slower for the
      * first few hundred layers a JVM peeled.
      */
    def start(core: Array[Int]): Unit = {
      var x = 0
      while (x < ids.length) { val v = ids(x); if (core(v) >= d) live(v >>> 6) |= 1L << v; x += 1 }
      x = 0
      while (x < ids.length) {
        val v = ids(x)
        if (bit(v) == 1) {
          var c = 0
          var j = off(v)
          val hi = off(v + 1)
          while (j < hi) { c += bit(tgt(j)); j += 1 }
          deg(x) = c
        }
        x += 1
      }
      x = 0
      while (x < ids.length) { if (deg(x) < d && bit(ids(x)) == 1) kill(x); x += 1 }
      settle(Array.emptyIntArray)
    }

    /** Kills the live pairs of the local ids `gone` and peels on until
      * every live pair has `d` live neighbours; returns where this call's
      * deaths start in `queue`.
      */
    def settle(gone: Array[Int]): Int = {
      val from = died
      var k = 0
      while (k < gone.length) { if (bit(ids(gone(k))) == 1) kill(gone(k)); k += 1 }
      while (head < died) {
        val v = ids(queue(head))
        head += 1
        var j = off(v)
        val hi = off(v + 1)
        while (j < hi) {
          val u = tgt(j)
          if (bit(u) == 1) {
            val y = loc(u) - 1
            deg(y) -= 1
            if (deg(y) < d) kill(y)
          }
          j += 1
        }
      }
      from
    }

    /** Adds 1 to `num(x)` for every live pair x. */
    def count(num: Array[Int]): Unit = {
      var x = 0
      while (x < ids.length) { num(x) += bit(ids(x)); x += 1 }
    }

    /** The live members of sorted `vs`. */
    def members(vs: Array[Int]): Array[Int] = {
      val out = new Array[Int](vs.length)
      var c = 0
      var k = 0
      while (k < vs.length) { out(c) = vs(k); c += bit(vs(k)); k += 1 }
      java.util.Arrays.copyOf(out, c)
    }
  }

  /** The frame GD, BU and TD peel in: the survivors A of `pre` (`ids`, so
    * local id x is `ids(x)`), each layer core in local ids, and G[A], built
    * on first use, or `g` itself when nothing was deleted. Every layer core
    * and d-CC bound lies inside A, and the relabelling is monotone, so a
    * peel on `graph` gives the d-CC a peel on `g` gives, in local ids.
    */
  private[core] final class Survivors(g: MLGraph, val pre: State) {
    val ids: Array[Int] = pre.active
    private val all = ids.length == g.numVertices
    // a merge walk: the members of each sorted core, as positions in `ids`
    val layerCores: Array[Array[Int]] =
      if (all) pre.layerCores
      else pre.layerCores.map { c => var p = 0; c.map { v => while (ids(p) < v) p += 1; p } }
    lazy val graph: MLGraph = if (all) g else g.induced(ids)._1
  }
}
