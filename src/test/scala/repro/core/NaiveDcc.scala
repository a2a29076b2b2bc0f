package repro.core

/** The test reference for [[Dcc.compute]]. */
object NaiveDcc {

  /** Naive fixpoint: repeatedly drop any vertex with a sub-d degree on some
    * layer of `L`, recomputing from scratch each round.
    */
  def compute(g: MLGraph, layers: Array[Int], d: Int,
              within: Array[Int] = null): Array[Int] = {
    var cur: Set[Int] =
      (if (within == null) Array.range(0, g.numVertices) else within).toSet
    var changed = true
    while (changed) {
      changed = false
      val bad = cur.filter { v =>
        layers.exists(l => g.neighbors(l, v).count(cur.contains) < d)
      }
      if (bad.nonEmpty) { cur = cur -- bad; changed = true }
    }
    cur.toArray.sorted
  }
}
