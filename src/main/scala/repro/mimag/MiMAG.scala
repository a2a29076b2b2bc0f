package repro.mimag

import repro.core.MLGraph
import scala.collection.mutable

/** Simplified MiMAG baseline (Boden et al., KDD 2012) — see DESIGN.md §4.
  *
  * Mines vertex sets `Q` with `|Q| ≥ minSize` that are γ-quasi-cliques on at
  * least `minSupport` layers, via set-enumeration branch-and-bound over
  * 2-hop seed neighborhoods (γ ≥ 0.5 bounds the quasi-clique diameter by 2
  * on each supporting layer [Pei et al. 2005]). Recorded sets are locally
  * maximal (no single-vertex extension keeps ≥ minSupport support —
  * quasi-cliques are not hereditary, so exact maximality would itself be
  * exponential; documented deviation). Diversification mimics MiMAG's
  * redundancy-free output: clusters are emitted by decreasing size and a
  * cluster is suppressed when more than `redundancy·|Q|` of it is already
  * covered.
  *
  * A node budget bounds the (inherently 2^|V|-shaped) search; runs report
  * whether they were truncated.
  *
  * Clique-regime pruning: while the *next* size t = |Q| + 1 still satisfies
  * ⌈γ(t−1)⌉ = t − 1 (for γ = 0.8 this holds up to t = 5), a γ-quasi-clique
  * is exactly a clique, and cliques ARE hereditary — so each branch carries
  * the set of layers on which Q is a clique and a new vertex must be
  * adjacent to all of Q on ≥ minSupport of them. Branches only enter the
  * generic (non-hereditary) enumeration after growing past the clique
  * regime. Documented approximation: a quasi-clique of size ≥ 6 containing
  * no persistent clique of size 5 (possible: its complement can be a
  * perfect matching) is missed; such sets do not arise in the planted
  * workloads, and MiMAG's own published pruning is similarly heuristic.
  */
object MiMAG {

  final case class Config(gamma: Double = 0.8,
                          minSize: Int = 3,
                          minSupport: Int = 1,
                          redundancy: Double = 0.25,
                          nodeBudget: Long = 3_000_000L,
                          maxClusterSize: Int = 40)

  final case class Cluster(vertices: Array[Int], layers: Array[Int])

  final case class Output(clusters: Vector[Cluster],
                          allMaximal: Vector[Cluster],
                          nodesExpanded: Long,
                          truncated: Boolean,
                          millis: Long)

  def run(g: MLGraph, cfg: Config): Output = {
    import cfg._
    val t0 = System.nanoTime()
    val n = g.numVertices
    var nodes = 0L
    var truncated = false
    val found = mutable.ArrayBuffer.empty[Cluster]

    // 2-hop neighborhood on the union graph (superset of any per-layer
    // 2-hop ball, hence a sound candidate universe for every seed).
    def twoHop(v: Int): Array[Int] = {
      val seen = new java.util.BitSet(n)
      g.unionAdj(v).foreach { u => seen.set(u); g.unionAdj(u).foreach(seen.set) }
      seen.clear(v)
      Iterator.iterate(seen.nextSetBit(0))(i => seen.nextSetBit(i + 1))
        .takeWhile(_ >= 0).toArray
    }

    val inQ = new java.util.BitSet(n)
    val inQC = new java.util.BitSet(n) // Q ∪ cand

    /** Layers on which every member of Q could still reach the degree
      * required at the minimum final size, given extension scope Q ∪ cand.
      */
    def feasibleLayers(q: List[Int], candAndQ: java.util.BitSet): Array[Int] = {
      val need = QuasiClique.requiredDegree(gamma, math.max(q.length, minSize))
      (0 until g.numLayers).filter { li =>
        q.forall(v => QuasiClique.degreeWithin(g, li, v, candAndQ) >= need)
      }.toArray
    }

    def supportOf(vs: Array[Int]): Array[Int] =
      QuasiClique.supportLayers(g, vs, gamma)

    /** Local maximality: no union-graph neighbor extends Q while keeping
      * support ≥ minSupport.
      */
    def isLocallyMaximal(vs: Array[Int]): Boolean = {
      val ext = mutable.SortedSet.empty[Int]
      val member = new java.util.BitSet(n)
      vs.foreach(member.set)
      vs.foreach(v => g.unionAdj(v).foreach(u => if (!member.get(u)) ext += u))
      !ext.exists { u =>
        val vs2 = (vs :+ u).sorted
        supportOf(vs2).length >= minSupport
      }
    }

    /** Is a set of size t necessarily a clique under gamma? */
    def cliqueRegime(t: Int): Boolean =
      QuasiClique.requiredDegree(gamma, t) == t - 1

    /** Layers of `layers` on which `u` is adjacent to every member of q. */
    def adjacentToAllOn(u: Int, q: List[Int], layers: Array[Int]): Array[Int] =
      layers.filter { li =>
        val off = g.offsets(li)
        q.forall(v => java.util.Arrays.binarySearch(g.targets(li), off(u), off(u + 1), v) >= 0)
      }

    /** @param cliqueLayers layers on which Q is a clique, or null once the
      *                     branch has outgrown the clique regime
      */
    def dfs(q: List[Int], cand: Array[Int], cliqueLayers: Array[Int]): Unit = {
      if (truncated) return
      nodes += 1
      if (nodes > nodeBudget) { truncated = true; return }
      val qArr = q.toArray.sorted

      if (qArr.length >= minSize) {
        val supp = supportOf(qArr)
        if (supp.length >= minSupport && isLocallyMaximal(qArr))
          found += Cluster(qArr, supp)
      }
      if (qArr.length >= maxClusterSize) return
      if (qArr.length + cand.length < minSize) return

      // Branch-and-bound: prune layers/candidates by degree feasibility.
      inQC.clear(); qArr.foreach(inQC.set); cand.foreach(inQC.set)
      val feas = feasibleLayers(q, inQC)
      if (q.nonEmpty && feas.length < minSupport) return
      val need = QuasiClique.requiredDegree(gamma, math.max(q.length + 1, minSize))
      val viable = cand.filter { w =>
        feas.count(li => QuasiClique.degreeWithin(g, li, w, inQC) >= need) >= minSupport
      }
      if (qArr.length + viable.length < minSize) return

      val inCliqueRegime = cliqueLayers != null && cliqueRegime(q.length + 1)
      var i = 0
      while (i < viable.length && !truncated) {
        val u = viable(i)
        if (inCliqueRegime) {
          // extension must keep Q ∪ {u} a clique on >= minSupport layers
          val childLayers = adjacentToAllOn(u, q, cliqueLayers)
          if (childLayers.length >= minSupport) {
            val childRegime = cliqueRegime(q.length + 2)
            dfs(u :: q, viable.drop(i + 1), if (childRegime) childLayers else null)
          }
        } else {
          dfs(u :: q, viable.drop(i + 1), null)
        }
        i += 1
      }
    }

    var seed = 0
    while (seed < n && !truncated) {
      if (g.unionAdj(seed).nonEmpty) {
        inQ.clear()
        val rootLayers =
          if (cliqueRegime(2)) Array.range(0, g.numLayers) else null
        dfs(List(seed), twoHop(seed).filter(_ > seed), rootLayers)
      }
      seed += 1
    }

    // Drop duplicates (identical vertex sets found from different seeds are
    // impossible in set-enumeration order, but be defensive) and diversify.
    val distinct = found.groupBy(_.vertices.toSeq).values.map(_.head).toVector
    val bySize = distinct.sortBy(c => (-c.vertices.length, -c.layers.length,
                                       c.vertices.toSeq.toString))
    val covered = new java.util.BitSet(n)
    val picked = Vector.newBuilder[Cluster]
    bySize.foreach { c =>
      val overlap = c.vertices.count(covered.get)
      if (overlap <= redundancy * c.vertices.length) {
        picked += c
        c.vertices.foreach(covered.set)
      }
    }

    Output(picked.result(), bySize, nodes, truncated,
           (System.nanoTime() - t0) / 1000000L)
  }
}
