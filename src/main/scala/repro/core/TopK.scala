package repro.core

import scala.collection.mutable

/** A discovered d-CC: its layer subset `L` (original layer ids, sorted) and
  * its vertex set (sorted).
  */
final case class Core(layers: Vector[Int], vertices: Array[Int]) {
  def size: Int = vertices.length
  override def toString: String =
    s"Core(L=${layers.mkString("{", ",", "}")}, |C|=${vertices.length})"
}

/** Temporary top-k diversified d-CC set `R` (Section IV-A + Appendix C).
  *
  * Maintains, per the paper's Update procedure:
  *  - hash `M`: vertex -> slots of the cores in R covering it (`owners`);
  *  - exclusive-cover sizes `|Δ(R, C')|` per core (`delta`).
  *
  * Rule 1: insert while |R| < k. Rule 2: replace C*(R) (the core with the
  * smallest Δ) when Eq. (1) holds:
  *   |Cov((R - {C*}) ∪ {C})| ≥ (1 + 1/k)·|Cov(R)|.
  *
  * Deviation from Appendix C: the paper finds C*(R) via a Δ-bucket hash `H`
  * in O(1); we scan the k ≤ 25 slots in O(k). Results are identical.
  */
final class TopKDiversified(val k: Int) {
  require(k >= 1, "k must be >= 1")

  private val cores  = mutable.ArrayBuffer.empty[Core]
  private val delta  = mutable.ArrayBuffer.empty[Int]
  private val owners = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]

  def size: Int = cores.size

  /** |Cov(R)| — number of vertices covered by R. */
  def covSize: Int = owners.size

  def result: Vector[Core] = cores.toVector

  /** Slot of C*(R), the core exclusively covering the fewest vertices. */
  def minDeltaSlot: Int = {
    var best = 0; var i = 1
    while (i < delta.length) { if (delta(i) < delta(best)) best = i; i += 1 }
    best
  }

  /** |Δ(R, C*(R))|; 0 when R is empty. */
  def deltaMin: Int = if (delta.isEmpty) 0 else delta(minDeltaSlot)

  private def addVertices(slot: Int, c: Core): Unit =
    c.vertices.foreach { v =>
      val buf = owners.getOrElseUpdate(v, mutable.ArrayBuffer.empty[Int])
      buf += slot
      if (buf.size == 1) delta(slot) += 1
      else if (buf.size == 2) delta(buf(0)) -= 1
    }

  private def removeVertices(slot: Int, c: Core): Unit =
    c.vertices.foreach { v =>
      val buf = owners(v)
      buf -= slot
      if (buf.isEmpty) owners.remove(v)
      else if (buf.size == 1) delta(buf(0)) += 1
    }

  /** Operation Size(R, C): |Cov((R - {C*(R)}) ∪ {C})| without mutating R. */
  def sizeIfReplace(vs: Array[Int]): Int = {
    require(cores.nonEmpty, "sizeIfReplace needs a non-empty R")
    val m = minDeltaSlot
    var c = covSize - delta(m)
    vs.foreach { v =>
      owners.get(v) match {
        case None => c += 1
        case Some(buf) => if (buf.size == 1 && buf(0) == m) c += 1
        case _ => ()
      }
    }
    c
  }

  /** Eq. (1) test for an arbitrary vertex set (used as pruning oracle on
    * candidate cores and potential sets). Vacuously true while |R| < k.
    */
  def satisfiesEq1(vs: Array[Int]): Boolean =
    cores.size < k || sizeIfReplace(vs) >= (1.0 + 1.0 / k) * covSize

  /** Update R with candidate `c` per Rules 1/2; returns whether R changed.
    * A core whose layer set is already in R is rejected: InitTopK and the
    * BU/TD searches can reach the same layer set more than once.
    */
  def tryUpdate(c: Core): Boolean =
    if (cores.exists(_.layers == c.layers)) false
    else if (cores.size < k) {
      cores += c
      delta += 0
      addVertices(cores.size - 1, c)
      true
    } else if (sizeIfReplace(c.vertices) >= (1.0 + 1.0 / k) * covSize) {
      val m = minDeltaSlot
      removeVertices(m, cores(m))
      cores(m) = c
      delta(m) = 0
      addVertices(m, c)
      true
    } else false

  /** Lemma 3 / Lemma 6 threshold: |Cov(R)|/k + |Δ(R, C*(R))|.
    * -inf while |R| < k (prunings only apply once R is full).
    */
  def orderPruneThreshold: Double =
    if (cores.size < k) Double.NegativeInfinity
    else covSize.toDouble / k + deltaMin

  /** Eq. (2) threshold of Lemma 7:
    * (1/k + 1/k^2)|Cov(R)| + (1 + 1/k)|Δ(R, C*(R))|.
    */
  def eq2Threshold: Double = {
    val kd = k.toDouble
    (1.0 / kd + 1.0 / (kd * kd)) * covSize + (1.0 + 1.0 / kd) * deltaMin
  }
}

object TopKDiversified {

  /** InitTopK (Appendix D), shared by BU and TD: `topk.k` greedy rounds, one
    * dCC call each. A round starts `L` at the layer whose d-core adds the
    * most uncovered vertices, grows it to s layers by largest intersection
    * with the running bound, and offers the d-CC of `L` inside that bound to
    * `topk`. Ties go to the lowest position; `order` maps positions to layers.
    */
  private[core] def initTopK(g: MLGraph, d: Int, s: Int, order: Array[Int],
                             cores: Array[Array[Int]], topk: TopKDiversified): Unit =
    for (_ <- 0 until topk.k) {
      val covered = new java.util.BitSet(g.numVertices)
      topk.result.foreach(_.vertices.foreach(covered.set))
      var L = List(cores.indices.maxBy(j => cores(j).count(v => !covered.get(v))))
      var c = cores(L.head)
      for (_ <- 1 until s) {
        val j = cores.indices.filterNot(L.contains)
          .maxBy(j2 => SetOps.intersect(c, cores(j2)).length)
        c = SetOps.intersect(c, cores(j))
        L = j :: L
      }
      val cc = if (c.isEmpty) Array.empty[Int] else Dcc.compute(g, L.map(order).toArray, d, c)
      topk.tryUpdate(Core(L.map(order).sorted.toVector, cc))
    }
}
