package repro.core

/** Vertex deletion as the nested loop of BU-DCCS lines 1-7: each round peels
  * every layer's d-core inside the survivors from scratch, one [[dCore]] per
  * layer, then drops the vertices in fewer than s of those cores, until a
  * round drops none. The reference `Preprocess.vertexDeletion` is tested
  * against.
  */
object NestedDeletion {

  /** d-core of layer `layer` of `g`, optionally within a vertex subset:
    * always a peel, the reference the core numbers are tested against.
    */
  def dCore(g: MLGraph, layer: Int, d: Int, within: Array[Int] = null): Array[Int] =
    Dcc.compute(g, Array(layer), d, within)

  /** The d-core of every layer inside `within`, one peel each. */
  def layerCores(g: MLGraph, d: Int, within: Array[Int]): Array[Array[Int]] =
    Array.tabulate(g.numLayers)(i => dCore(g, i, d, within))

  /** Support number Num(v) = |{ i : v ∈ cores(i) }| for every vertex. */
  def supportNum(numVertices: Int, cores: Array[Array[Int]]): Array[Int] = {
    val num = new Array[Int](numVertices)
    cores.foreach(_.foreach(v => num(v) += 1))
    num
  }

  def run(g: MLGraph, d: Int, s: Int): Preprocess.State = {
    var active = Array.range(0, g.numVertices)
    var cores = layerCores(g, d, active)
    var rounds = 1
    var stable = false
    while (!stable) {
      val num = supportNum(g.numVertices, cores)
      val keep = active.filter(num(_) >= s)
      if (keep.length == active.length) stable = true
      else { active = keep; cores = layerCores(g, d, active); rounds += 1 }
    }
    Preprocess.State(active, cores, rounds)
  }
}
