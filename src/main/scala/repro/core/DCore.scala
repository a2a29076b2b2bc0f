package repro.core

/** Single-layer d-core `C^d(G_i)` (Batagelj-Zaversnik peel [3]); by
  * definition `C^d(G_i) = C^d_{{i}}(G)`, so this is the one-layer
  * specialization of [[Dcc]].
  */
object DCore {

  /** d-core of layer `layer` of `g`, optionally within a vertex subset. */
  def compute(g: MLGraph, layer: Int, d: Int,
              within: Array[Int] = null): Array[Int] =
    Dcc.compute(g, Array(layer), d, within)

  /** d-cores of every layer (within an optional subset); the l peels run
    * on the common fork-join pool, each into its layer's slot.
    */
  def allLayers(g: MLGraph, d: Int, within: Array[Int] = null): Array[Array[Int]] =
    Par.tabulate(g.numLayers)(i => compute(g, i, d, within))

  /** Support number Num(v) = |{ i : v ∈ C^d(G_i) }| for every vertex,
    * given precomputed per-layer cores.
    */
  def supportNum(numVertices: Int, cores: Array[Array[Int]]): Array[Int] = {
    val num = new Array[Int](numVertices)
    cores.foreach(_.foreach(v => num(v) += 1))
    num
  }
}
