package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import java.util.concurrent.{Callable, ForkJoinPool}
import scala.collection.mutable
import scala.util.Random

class MLGraphSpec extends AnyFunSuite {

  test("fromEdges dedups, drops self-loops, normalizes orientation") {
    val g = MLGraph.fromEdges(1, 4, Seq((0, 0, 1), (0, 1, 0), (0, 0, 1), (0, 2, 2), (0, 2, 3)))
    assert(g.edgeCount(0) == 2)
    assert(g.neighbors(0, 0).toSeq == Seq(1))
    assert(g.neighbors(0, 1).toSeq == Seq(0))
    assert(g.neighbors(0, 2).toSeq == Seq(3))
  }

  test("adjacency is sorted and symmetric") {
    val g = TestGraphs.random(1, 30, 3, 0.2)
    for (li <- 0 until 3; v <- 0 until 30) {
      val ns = g.neighbors(li, v).toSeq
      assert(ns == ns.sorted)
      ns.foreach(u => assert(g.neighbors(li, u).contains(v)))
    }
  }

  test("edgeTriples round-trips through fromEdges") {
    val g = TestGraphs.random(2, 25, 4, 0.15)
    val g2 = MLGraph.fromEdges(4, 25, g.edgeTriples.toSeq)
    for (li <- 0 until 4; v <- 0 until 25)
      assert(g.neighbors(li, v).toSeq == g2.neighbors(li, v).toSeq)
  }

  test("tiny graph degrees and counts") {
    val g = TestGraphs.tiny
    assert(g.numLayers == 2 && g.numVertices == 5)
    assert(g.edgeCount(0) == 4 && g.edgeCount(1) == 4)
    assert(g.degree(0, 0) == 2 && g.degree(0, 3) == 1 && g.degree(1, 4) == 0)
    assert(g.totalEdgeCount == 8)
  }

  test("unionAdj merges layers") {
    val g = TestGraphs.tiny
    assert(g.unionAdj(0).toSeq == Seq(1, 2, 3))
    assert(g.unionAdj(3).toSeq == Seq(0, 2, 4))
    assert(g.unionEdgeCount == 6) // (0,1),(1,2),(0,2),(3,4),(2,3),(0,3)
  }

  test("selectLayers keeps requested layers in order") {
    val g = TestGraphs.random(3, 20, 5, 0.2)
    val sel = g.selectLayers(Seq(4, 1))
    assert(sel.numLayers == 2)
    (0 until 20).foreach { v =>
      assert(sel.neighbors(0, v).toSeq == g.neighbors(4, v).toSeq)
      assert(sel.neighbors(1, v).toSeq == g.neighbors(1, v).toSeq)
    }
  }

  test("induced subgraph keeps internal edges only") {
    val g = TestGraphs.tiny
    val (sub, old) = g.induced(Array(0, 1, 2))
    assert(old.toSeq == Seq(0, 1, 2))
    assert(sub.numVertices == 3)
    assert(sub.edgeCount(0) == 3) // the triangle
    assert(sub.edgeCount(1) == 2) // 0-1, 1-2 (2-3 and 0-3 cut)
  }

  test("induced subgraph re-densifies ids") {
    val g = TestGraphs.tiny
    val (sub, old) = g.induced(Array(2, 4, 0))
    assert(old.toSeq == Seq(0, 2, 4))
    assert(sub.neighbors(0, 0).toSeq == Seq(1)) // old edge (0,2) on layer 0
  }

  // Reference: the one-SortedSet-per-(layer, vertex) builder fromEdges used
  // before it was rewritten over primitive buffers.
  private def sortedSetAdj(l: Int, n: Int,
                           edges: Seq[(Int, Int, Int)]): Array[Array[Array[Int]]] = {
    val sets = Array.fill(l, n)(mutable.SortedSet.empty[Int])
    edges.foreach { case (li, u, v) =>
      if (u != v) { sets(li)(u) += v; sets(li)(v) += u }
    }
    sets.map(_.map(_.toArray))
  }

  /** Random edges on n vertices over `l` layers, one of them empty, with
    * isolated vertices, self-loops and duplicates in both orientations,
    * shuffled. Returns (n, edges, the empty layer, the isolated vertices).
    */
  private def randomEdges(rng: Random, l: Int): (Int, Seq[(Int, Int, Int)], Int, Set[Int]) = {
    val n = 1 + rng.nextInt(60)
    val emptyLayer = rng.nextInt(l)
    val isolated = (0 until n).filter(_ => rng.nextDouble() < 0.2).toSet
    val ends = (0 until n).filterNot(isolated).toIndexedSeq
    val base = if (ends.isEmpty) Seq.empty else Seq.fill(rng.nextInt(8 * n)) {
      val li = rng.nextInt(l)
      (if (li == emptyLayer) (li + 1) % l else li,
       ends(rng.nextInt(ends.length)), ends(rng.nextInt(ends.length)))
    }
    // duplicates in both orientations, then a shuffle
    val dups = base.filter(_ => rng.nextDouble() < 0.3).map { case (li, u, v) => (li, v, u) }
    (n, rng.shuffle(base ++ dups ++ base.take(base.length / 4)), emptyLayer, isolated)
  }

  /** `f` run inside a fork-join pool of one worker, which takes the pool
    * stages' tasks of a build one at a time.
    */
  private def onOneWorker[T](f: => T): T = {
    val pool = new ForkJoinPool(1)
    val task: Callable[T] = () => f
    try pool.submit(task).get
    finally pool.shutdown()
  }

  private def assertSameArrays(form: String, g: MLGraph, h: MLGraph): Unit =
    for (li <- 0 until g.numLayers) {
      assert(g.offsets(li).sameElements(h.offsets(li)), s"$form offsets, layer $li")
      assert(g.targets(li).sameElements(h.targets(li)), s"$form targets, layer $li")
    }

  private def assertMatches(form: String, g: MLGraph, ref: Array[Array[Array[Int]]]): Unit =
    for (li <- 0 until g.numLayers; v <- 0 until g.numVertices)
      assert(g.neighbors(li, v).sameElements(ref(li)(v)), s"$form layer $li vertex $v")

  /** fromEdges on [[randomEdges]] against [[sortedSetAdj]], with the edges
    * given in seven forms: an Iterator and a List (not indexed, so copied
    * to an array first), an Array, a Vector and an ArrayBuffer (indexed,
    * so read in chunks as they are), and sorted ascending and descending
    * by (layer, u, v); each on the calling thread and on a one-worker
    * pool, and the Array read in 1, 2, 3, 7 and one chunk per edge. All
    * must build the same CSR arrays. So must an Array of its first 1 to 3
    * edges (fewer than the chunks the pool asks for), an empty Array and
    * an Array of self-loops only, each against an Iterator of the same
    * edges and its own reference.
    */
  private def checkAgainstSortedSet(rng: Random, l: Int): Unit = {
    val (n, edges, emptyLayer, isolated) = randomEdges(rng, l)
    val ref = sortedSetAdj(l, n, edges)
    val array = edges.toArray[(Int, Int, Int)]
    val asc = array.sorted
    def build(input: IterableOnce[(Int, Int, Int)]) = MLGraph.fromEdges(l, n, input)
    val forms = Seq[(String, () => IterableOnce[(Int, Int, Int)])](
      "iterator" -> (() => edges.iterator), "list" -> (() => edges.toList), "array" -> (() => array),
      "vector" -> (() => edges.toVector), "arrayBuffer" -> (() => mutable.ArrayBuffer.from(edges)),
      "ascending" -> (() => asc), "descending" -> (() => asc.reverse))
    val graphs = forms.flatMap { case (form, input) =>
      Seq(form -> build(input()), s"$form, one worker" -> onOneWorker(build(input())))
    } ++ Seq(1, 2, 3, 7, array.length).filter(_ >= 1).map { chunks =>
      s"array in $chunks chunks" -> MLGraph.fromIndexed(l, n, array, chunks)
    }
    val first = graphs.head._2
    for ((form, g) <- graphs) {
      assertSameArrays(form, g, first)
      assertMatches(form, g, ref)
      assert(g.edgeCount(emptyLayer) == 0)
      isolated.foreach(v => (0 until l).foreach(li => assert(g.degree(li, v) == 0)))
    }

    val small = Seq("first edges" -> array.take(1 + rng.nextInt(3)),
                    "empty" -> Array.empty[(Int, Int, Int)],
                    "self-loops" -> array.map { case (li, u, _) => (li, u, u) })
    for ((form, input) <- small) {
      val g = build(input)
      assertSameArrays(s"$form, iterator", build(input.iterator), g)
      assertSameArrays(s"$form, one worker", onOneWorker(build(input)), g)
      assertMatches(form, g, sortedSetAdj(l, n, input.toSeq))
    }
  }

  for (seed <- 1 to 8) {
    test(s"fromEdges builds the same adjacency as a SortedSet builder (seed=$seed)") {
      val rng = new Random(seed)
      checkAgainstSortedSet(rng, 2 + rng.nextInt(4))
    }
  }

  // enough layers that the per-layer sort is split over several tasks
  for (seed <- 9 to 12) {
    test(s"fromEdges with 8 to 16 layers matches the SortedSet builder (seed=$seed)") {
      val rng = new Random(seed)
      checkAgainstSortedSet(rng, 8 + rng.nextInt(9))
    }
  }

  // The CSR layout and every operation that reads it, on one graph each,
  // against the rows of the SortedSet builder.
  for (seed <- 1 to 8) {
    test(s"CSR rows, edgeCount, edgeTriples, selectLayers and induced match the SortedSet reference (seed=$seed)") {
      val rng = new Random(700 + seed)
      val l = 1 + rng.nextInt(if (seed > 4) 16 else 4)
      val (n, edges, _, _) = randomEdges(rng, l)
      val g = MLGraph.fromEdges(l, n, edges)
      val ref = sortedSetAdj(l, n, edges)
      for (li <- 0 until l) {
        val off = g.offsets(li)
        assert(off.length == n + 1 && off(0) == 0 && off(n) == g.targets(li).length)
        (0 until n).foreach { v =>
          assert(g.degree(li, v) == ref(li)(v).length)
          assert(g.neighbors(li, v).sameElements(ref(li)(v)), s"layer $li vertex $v")
        }
        assert(g.edgeCount(li) == ref(li).map(_.length).sum / 2)
      }
      assert(g.edgeTriples.toSeq ==
        (for (li <- 0 until l; u <- 0 until n; w <- ref(li)(u).toSeq if u < w) yield (li, u, w)))

      val layers = Seq.fill(1 + rng.nextInt(2 * l))(rng.nextInt(l)) // repeats allowed
      val sel = g.selectLayers(layers)
      assert(sel.numLayers == layers.length)
      for ((li, i) <- layers.zipWithIndex; v <- 0 until n)
        assert(sel.neighbors(i, v).sameElements(ref(li)(v)), s"selected layer $i vertex $v")

      val (sub, old) = g.induced(Array.fill(rng.nextInt(n + 1))(rng.nextInt(n)))
      val newId = old.zipWithIndex.toMap
      for (li <- 0 until l; x <- old.indices)
        assert(sub.neighbors(li, x).toSeq == ref(li)(old(x)).toSeq.flatMap(newId.get),
          s"induced layer $li vertex ${old(x)}")
    }
  }

  // Reference: the HashMap + fromEdges body `induced` had before it was
  // rebuilt over an id array.
  private def inducedViaEdges(g: MLGraph, vertices: Array[Int]): (MLGraph, Array[Int]) = {
    val old = vertices.sorted.distinct
    val newId = new mutable.HashMap[Int, Int]()
    old.iterator.zipWithIndex.foreach { case (o, i) => newId(o) = i }
    val edges = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    var li = 0
    while (li < g.numLayers) {
      old.foreach { u =>
        g.neighbors(li, u).foreach { w =>
          if (u < w && newId.contains(w)) edges += ((li, newId(u), newId(w)))
        }
      }
      li += 1
    }
    (MLGraph.fromEdges(g.numLayers, old.length, edges), old)
  }

  /** A random graph over `l` layers (one of them empty) with isolated
    * vertices.
    */
  private def randomWithGaps(rng: Random, l: Int): MLGraph = {
    val n = 1 + rng.nextInt(60)
    val emptyLayer = rng.nextInt(l)
    val ends = (0 until n).filter(_ => rng.nextDouble() >= 0.2)
    val edges = if (ends.isEmpty) Seq.empty else Seq.fill(rng.nextInt(8 * n)) {
      val li = rng.nextInt(l)
      (if (li == emptyLayer) (li + 1) % l else li,
       ends(rng.nextInt(ends.length)), ends(rng.nextInt(ends.length)))
    }
    MLGraph.fromEdges(l, n, edges)
  }

  private def sameGraph(a: MLGraph, b: MLGraph): Boolean =
    a.numLayers == b.numLayers && a.numVertices == b.numVertices &&
      (0 until a.numLayers).forall(li =>
        (0 until a.numVertices).forall(v => a.neighbors(li, v).sameElements(b.neighbors(li, v))))

  for (seed <- 1 to 8) {
    test(s"induced equals the HashMap + fromEdges reference (seed=$seed)") {
      val rng = new Random(300 + seed)
      val l = 1 + rng.nextInt(if (seed > 4) 16 else 4)
      val g = randomWithGaps(rng, l)
      val n = g.numVertices
      val some = Array.fill(rng.nextInt(2 * n + 1))(rng.nextInt(n)) // unsorted, repeats
      for (vs <- Seq(some, some.sorted.distinct, Array.emptyIntArray,
                     Array.range(0, n), Array.range(0, n).reverse)) {
        val (sub, old) = g.induced(vs)
        val (ref, refOld) = inducedViaEdges(g, vs)
        assert(old.sameElements(refOld))
        assert(sameGraph(sub, ref), s"vertices ${vs.toSeq}")
      }
      assert(sameGraph(g.induced(Array.range(0, n))._1, g))
    }
  }

  // Reference: the one-SortedSet-per-vertex builder unionAdj used before.
  private def sortedSetUnion(g: MLGraph): Array[Array[Int]] =
    Array.tabulate(g.numVertices) { v =>
      val set = mutable.SortedSet.empty[Int]
      (0 until g.numLayers).foreach(li => g.neighbors(li, v).foreach(set += _))
      set.toArray
    }

  for (seed <- 1 to 8) {
    test(s"unionAdj equals a SortedSet union of the layers (seed=$seed)") {
      val rng = new Random(500 + seed)
      val g = randomWithGaps(rng, 1 + rng.nextInt(8))
      val ref = sortedSetUnion(g)
      (0 until g.numVertices).foreach(v => assert(g.unionAdj(v).sameElements(ref(v)), s"vertex $v"))
    }
  }

  // A bad edge found inside a pool task reaches the caller as the same
  // IllegalArgumentException, for the first bad edge in input order.
  test("fromEdges reports the first bad edge in input order, read in chunks or not") {
    val (l, n) = (3, 10)
    val good = Array.tabulate(96)(e => (e % l, e % n, (3 * e + 1) % n))
    val vertexFirst = good.updated(20, (1, 4, n)).updated(95, (l, 0, 1))
    val layerFirst = good.updated(33, (-1, 2, 2)).updated(80, (0, -1, 3))
    for ((edges, message) <- Seq(vertexFirst -> s"bad edge (4,$n)", layerFirst -> "bad layer -1")) {
      val forms = Seq[(String, () => MLGraph)](
        "array" -> (() => MLGraph.fromEdges(l, n, edges)),
        "iterator" -> (() => MLGraph.fromEdges(l, n, edges.iterator)),
        "list" -> (() => MLGraph.fromEdges(l, n, edges.toList))) ++
        Seq(1, 2, 5, 8, 96).map(c => s"$c chunks" -> (() => MLGraph.fromIndexed(l, n, edges, c)))
      for ((form, build) <- forms;
           e <- Seq(intercept[IllegalArgumentException](build()),
                    onOneWorker(intercept[IllegalArgumentException](build())))) {
        assert(e.getClass == classOf[IllegalArgumentException], form)
        assert(e.getMessage == s"requirement failed: $message", form)
      }
    }
  }

  test("fromEdges validates layer and vertex bounds") {
    intercept[IllegalArgumentException](MLGraph.fromEdges(1, 3, Seq((1, 0, 1))))
    intercept[IllegalArgumentException](MLGraph.fromEdges(1, 3, Seq((0, 0, 3))))
    // more edges than one flat read array holds: refused before any is read
    val tooMany = new collection.IndexedSeq[(Int, Int, Int)] {
      def length: Int = Int.MaxValue
      def apply(e: Int): (Int, Int, Int) = (0, 0, 1)
    }
    val e = intercept[IllegalArgumentException](MLGraph.fromEdges(1, 3, tooMany))
    assert(e.getMessage.startsWith(s"requirement failed: ${Int.MaxValue} edges, more than"))
  }

  test("empty graph has no edges") {
    val g = MLGraph.empty(3, 10)
    assert(g.totalEdgeCount == 0 && g.unionEdgeCount == 0)
  }
}
