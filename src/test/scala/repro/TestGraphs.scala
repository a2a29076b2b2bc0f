package repro

import repro.core.MLGraph
import repro.graphgen.MLSynth
import scala.util.Random

/** Deterministic random multi-layer graphs for tests. */
object TestGraphs {

  /** Erdos-Renyi per layer with edge probability `p`. */
  def random(seed: Long, n: Int, l: Int, p: Double): MLGraph = {
    val rng = new Random(seed)
    val edges = for {
      li <- 0 until l
      u <- 0 until n
      v <- (u + 1) until n
      if rng.nextDouble() < p
    } yield (li, u, v)
    MLGraph.fromEdges(l, n, edges)
  }

  /** ER background plus one planted clique on a subset of layers. */
  def withPlantedClique(seed: Long, n: Int, l: Int, p: Double,
                        clique: Range, layers: Seq[Int]): MLGraph = {
    val rng = new Random(seed)
    val bg = for {
      li <- 0 until l
      u <- 0 until n
      v <- (u + 1) until n
      if rng.nextDouble() < p
    } yield (li, u, v)
    val planted = for {
      li <- layers
      u <- clique
      v <- clique
      if u < v
    } yield (li, u, v)
    MLGraph.fromEdges(l, n, bg ++ planted)
  }

  /** Hub-heavy graph: each layer draws `m` vertex pairs from a Zipf law over
    * the ids (vertex i has weight (i+1)^-1.1), dropping self-loops and
    * repeats, so the low ids become high-degree hubs.
    */
  def zipf(seed: Long, n: Int, l: Int, m: Int): MLGraph = {
    val rng = new Random(seed)
    val cdf = (1 to n).scanLeft(0.0)((acc, i) => acc + math.pow(i, -1.1)).tail.toArray
    def draw(): Int = {
      val i = java.util.Arrays.binarySearch(cdf, rng.nextDouble() * cdf.last)
      if (i >= 0) i else -i - 1
    }
    val edges = for {
      li <- 0 until l
      _ <- 0 until m
      (u, v) = (draw(), draw())
      if u != v
    } yield (li, math.min(u, v), math.max(u, v))
    MLGraph.fromEdges(l, n, edges)
  }

  /** The `preset` stand-in with a quarter of its vertices, communities and
    * background edges, every community of the preset's mean size: the
    * graphs of the `perfbench` workloads (stack: n = 7,500, l = 24;
    * english: n = 7,500, l = 15).
    */
  def quarter(preset: String, seed: Long): MLGraph = {
    val p = MLSynth.presets(preset)
    val size = (p.minCommSize + p.maxCommSize) / 2
    MLSynth.generate(p.copy(n = p.n / 4, nCommunities = p.nCommunities / 4,
      minCommSize = size, maxCommSize = size, bgEdgesPerLayer = p.bgEdgesPerLayer / 4,
      seed = seed)).graph
  }

  /** `g` with `by` isolated vertices in front: every id moves up by `by`. */
  def shifted(g: MLGraph, by: Int): MLGraph =
    MLGraph.fromEdges(g.numLayers, g.numVertices + by, g.edgeTriples.map {
      case (li, u, v) => (li, u + by, v + by)
    })

  /** A tiny fully hand-checkable 2-layer graph:
    * layer 0: triangle {0,1,2} + edge (3,4); layer 1: square 0-1-2-3-0.
    */
  def tiny: MLGraph = MLGraph.fromEdges(2, 5, Seq(
    (0, 0, 1), (0, 1, 2), (0, 0, 2), (0, 3, 4),
    (1, 0, 1), (1, 1, 2), (1, 2, 3), (1, 0, 3),
  ))
}
