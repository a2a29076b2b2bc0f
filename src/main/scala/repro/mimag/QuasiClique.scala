package repro.mimag

import repro.core.MLGraph

/** γ-quasi-clique predicates on individual layers of a multi-layer graph. */
object QuasiClique {

  /** Minimum within-set degree required of each member of a γ-quasi-clique
    * of the given size: ⌈γ·(size − 1)⌉.
    */
  def requiredDegree(gamma: Double, size: Int): Int =
    math.ceil(gamma * (size - 1)).toInt

  /** Degree of `v` within the vertex set marked in `inSet` on `layer`. */
  def degreeWithin(g: MLGraph, layer: Int, v: Int, inSet: java.util.BitSet): Int = {
    val tgt = g.targets(layer)
    var c = 0
    var j = g.offsets(layer)(v)
    val hi = g.offsets(layer)(v + 1)
    while (j < hi) { if (inSet.get(tgt(j))) c += 1; j += 1 }
    c
  }

  /** Is `vs` a γ-quasi-clique on `layer`? */
  def isQuasiClique(g: MLGraph, layer: Int, vs: Array[Int], gamma: Double): Boolean = {
    if (vs.length <= 1) return true
    val inSet = new java.util.BitSet(g.numVertices)
    vs.foreach(inSet.set)
    val need = requiredDegree(gamma, vs.length)
    vs.forall(v => degreeWithin(g, layer, v, inSet) >= need)
  }

  /** Layers on which `vs` is a γ-quasi-clique. */
  def supportLayers(g: MLGraph, vs: Array[Int], gamma: Double): Array[Int] =
    (0 until g.numLayers).filter(isQuasiClique(g, _, vs, gamma)).toArray
}
