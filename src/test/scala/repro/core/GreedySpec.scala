package repro.core

import java.util.concurrent.{Callable, Executors}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import scala.collection.mutable
import scala.util.Random

class GreedySpec extends AnyFunSuite {

  /** GD written out sequentially: the nested vertex deletion
    * ([[NestedDeletion]]), candidates peeled in enumeration order inside
    * their Lemma-1 bound, then greedy selection taking the first maximum.
    * Returns (layers, vertices) of each pick and the cover size.
    */
  private def sequentialGD(g: MLGraph, d: Int, s: Int,
                           k: Int): (Vector[(Vector[Int], Seq[Int])], Int) =
    sequentialRun(g, d, s, k)._1

  /** [[sequentialGD]]'s answer with the `dccCalls` and
    * `candidatesGenerated` GD reports: l peels per deletion round plus one
    * per candidate, every candidate peeled.
    */
  private def sequentialRun(g: MLGraph, d: Int, s: Int, k: Int)
      : ((Vector[(Vector[Int], Seq[Int])], Int), Int, Int) = {
    val pre = NestedDeletion.run(g, d, s)
    val cores = pre.layerCores
    val cands = (0 until g.numLayers).combinations(s).map { combo =>
      val bound = SetOps.intersectAll(combo.map(cores))
      combo.toVector ->
        (if (bound.isEmpty) Seq.empty[Int]
         else Dcc.compute(g, combo.toArray, d, bound).toSeq)
    }.to(mutable.ArrayBuffer)
    val nCands = cands.length
    val covered = mutable.Set.empty[Int]
    val picked = Vector.newBuilder[(Vector[Int], Seq[Int])]
    for (_ <- 1 to k if cands.nonEmpty) {
      val gains = cands.map(_._2.count(v => !covered.contains(v)))
      val best = cands.remove(gains.indexOf(gains.max))
      covered ++= best._2
      picked += best
    }
    ((picked.result(), covered.size), g.numLayers * pre.rounds + nCands, nCands)
  }

  private def answer(out: GreedyDCCS.Output): (Vector[(Vector[Int], Seq[Int])], Int) =
    (out.result.map(c => (c.layers, c.vertices.toSeq)), out.coverSize)

  private def answerAndStats(out: GreedyDCCS.Output)
      : ((Vector[(Vector[Int], Seq[Int])], Int), Int, Int) =
    (answer(out), out.stats.dccCalls, out.stats.candidatesGenerated)

  /** How many of GD's candidates have a bound as large as each of their
    * layer cores (no peel), and how many have one whose d-CC is smaller.
    */
  private def denseAndPeeled(g: MLGraph, d: Int, s: Int): (Int, Int) = {
    val pre = Preprocess.vertexDeletion(g, d, s)
    val combos = (0 until g.numLayers).combinations(s).toSeq
    val bounds = combos.map(c => c -> SetOps.intersectAll(c.map(pre.layerCores)))
    (bounds.count { case (c, b) => c.forall(pre.layerCores(_).length == b.length) },
     bounds.count { case (c, b) => Dcc.compute(g, c.toArray, d, b).length < b.length })
  }

  /** `copies` identical copies of each of two random layers: every
    * candidate built from copies of one layer ties with the others.
    */
  private def replicated(seed: Long, n: Int, copies: Int, p: Double): MLGraph = {
    val base = TestGraphs.random(seed, n, 2, p)
    MLGraph.fromEdges(2 * copies, n, base.edgeTriples.flatMap { case (li, u, v) =>
      (0 until copies).map(c => (li * copies + c, u, v))
    })
  }

  /** The selection GD ran before its candidates became bitsets: the gains
    * counted vertex by vertex against a `BitSet` of covered ids, the first
    * maximum taken. Returns the indices of the picks and the cover size.
    */
  private def intSelect(sets: Array[Array[Int]], k: Int): (Vector[Int], Int) = {
    val covered = new java.util.BitSet()
    val taken = new Array[Boolean](sets.length)
    val picked = Vector.newBuilder[Int]
    var j = 0
    while (j < k && j < sets.length) {
      val gains = sets.indices.map(i => if (taken(i)) -1 else sets(i).count(!covered.get(_)))
      var bestIdx = 0
      var i = 1
      while (i < gains.length) { if (gains(i) > gains(bestIdx)) bestIdx = i; i += 1 }
      taken(bestIdx) = true
      sets(bestIdx).foreach(covered.set)
      picked += bestIdx
      j += 1
    }
    (picked.result(), covered.cardinality())
  }

  /** A graph whose vertex deletion at d = 2 and s <= 3 keeps exactly the
    * ids `0 until m`: layers 0-2 each hold a cycle through all of them, the
    * other layers a cycle through a random part, all with random chords.
    * Each of the `extra` ids above them hangs off one survivor on some
    * layers, so it has degree at most 1 on every layer and is deleted.
    */
  private def withSurvivors(seed: Long, m: Int, extra: Int, l: Int): MLGraph = {
    val rng = new Random(seed)
    val edges = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    for (li <- 0 until l) {
      val part = rng.shuffle((0 until m).toVector).filter(_ => li < 3 || rng.nextDouble() < 0.6)
      if (part.length >= 3) {
        part.indices.foreach(i => edges += ((li, part(i), part((i + 1) % part.length))))
        (0 until m / 4).foreach { _ =>
          edges += ((li, part(rng.nextInt(part.length)), part(rng.nextInt(part.length))))
        }
      }
      (m until m + extra).foreach(x => if (rng.nextBoolean()) edges += ((li, x, rng.nextInt(m))))
    }
    MLGraph.fromEdges(l, m + extra, edges)
  }

  for (seed <- 1 to 6) {
    val g = TestGraphs.random(400 + seed, 25, 4, 0.2)
    val (d, s, k) = (2, 2, 3)

    test(s"every returned core is the true d-CC of its label (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      out.result.foreach { c =>
        assert(c.layers.length == s)
        assert(c.vertices.toSeq == Dcc.compute(g, c.layers.toArray, d).toSeq)
      }
    }

    test(s"labels are distinct layer subsets of size s (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      val labels = out.result.map(_.layers)
      assert(labels.distinct.length == labels.length)
    }

    test(s"coverSize equals the union of the returned cores (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      assert(out.coverSize == SetOps.coverSize(out.result.map(_.vertices)))
    }

    test(s"GD equals a sequential reference GD (seed=$seed)") {
      assert(answer(GreedyDCCS.run(g, d, s, k)) == sequentialGD(g, d, s, k))
      val wide = TestGraphs.random(440 + seed, 60, 7, 0.12)
      for ((wd, ws, wk) <- Seq((2, 3, 6), (1, 2, 10), (3, 4, 40)))
        assert(answer(GreedyDCCS.run(wide, wd, ws, wk)) == sequentialGD(wide, wd, ws, wk),
          s"d=$wd s=$ws k=$wk")
    }

    test(s"greedy matches a naive greedy over the full candidate set (seed=$seed)") {
      val out = GreedyDCCS.run(g, d, s, k)
      // naive: same candidates, same greedy marginal-gain policy
      var cands = ExactDCCS.candidates(g, d, s)
      var covered = Set.empty[Int]
      var cov = 0
      (1 to k).foreach { _ =>
        if (cands.nonEmpty) {
          val best = cands.maxBy(c => c.vertices.count(v => !covered.contains(v)))
          covered ++= best.vertices
          cands = cands.filterNot(_ eq best)
          cov = covered.size
        }
      }
      assert(out.coverSize == cov)
    }
  }

  test("k greater than the number of candidates returns them all") {
    val g = TestGraphs.random(410, 20, 3, 0.25)
    val out = GreedyDCCS.run(g, 2, 2, 100)
    assert(out.result.length == 3) // C(3,2)
  }

  test("coverSize is monotone in k") {
    val g = TestGraphs.random(411, 30, 4, 0.2)
    val covs = (1 to 6).map(k => GreedyDCCS.run(g, 2, 2, k).coverSize)
    covs.sliding(2).foreach { case Seq(a, b) => assert(a <= b) }
  }

  test("stats count one dcc call per candidate plus preprocessing") {
    val g = TestGraphs.random(412, 25, 4, 0.2)
    val out = GreedyDCCS.run(g, 2, 2, 3)
    val rounds = Preprocess.vertexDeletion(g, 2, 2).rounds
    assert(out.stats.candidatesGenerated == 6) // C(4,2)
    assert(out.stats.dccCalls == 6 + 4 * rounds)
  }

  test("ties on gain break by enumeration order, as in a sequential GD") {
    for (seed <- 1 to 4) {
      val g = replicated(450 + seed, 40, 4, 0.15)
      for ((d, s, k) <- Seq((2, 2, 5), (2, 3, 12), (1, 4, 70))) {
        val out = GreedyDCCS.run(g, d, s, k)
        assert(answer(out) == sequentialGD(g, d, s, k), s"seed=$seed d=$d s=$s k=$k")
      }
    }
  }

  test("GD on survivors with high ids equals the sequential answer") {
    // ids 0..n/2 are isolated, so every survivor's local id in G[A] differs
    // from its id in g
    for (seed <- 1 to 3) {
      val g = TestGraphs.shifted(TestGraphs.random(460 + seed, 60, 5, 0.15), 60)
      for ((d, s, k) <- Seq((2, 2, 4), (3, 3, 5), (1, 4, 10), (2, 5, 1))) {
        val out = GreedyDCCS.run(g, d, s, k)
        assert(answer(out) == sequentialGD(g, d, s, k), s"seed=$seed d=$d s=$s k=$k")
        out.result.foreach(c => assert(c.vertices.forall(_ >= 60)))
      }
    }
  }

  test("GD where every layer core equals the survivors peels nothing and equals the sequential GD") {
    // s > copies: a survivor is in the cores of both base layers, so every
    // layer core is A and every candidate's bound is its d-CC
    for (seed <- 1 to 3) {
      val g = TestGraphs.shifted(replicated(480 + seed, 40, 4, 0.15), 30)
      for (d <- 1 to 3; s <- Seq(6, 7, 8); k <- Seq(1, 3, 8)) {
        val pre = Preprocess.vertexDeletion(g, d, s)
        assert(pre.active.nonEmpty && pre.active.length < g.numVertices)
        assert(pre.layerCores.forall(_.sameElements(pre.active)))
        assert(answerAndStats(GreedyDCCS.run(g, d, s, k)) == sequentialRun(g, d, s, k),
          s"seed=$seed d=$d s=$s k=$k")
      }
    }
  }

  test("a bound equal to one layer core but not dense on another is still peeled") {
    // d = 2, s = 2, ids 0..4 isolated. Layer 0: triangle {5,6,7}; layer 1:
    // cycle 5-6-7-8; layer 2: triangle {5,7,8}. No survivor is deleted
    // after round 1, and candidate {0,1} has the bound {5,6,7} = C_0 ⊊ C_1,
    // on which layer 1 is the path 5-6-7: its d-CC is empty.
    val g = MLGraph.fromEdges(3, 9, Seq(
      (0, 5, 6), (0, 6, 7), (0, 5, 7),
      (1, 5, 6), (1, 6, 7), (1, 7, 8), (1, 5, 8),
      (2, 5, 7), (2, 7, 8), (2, 5, 8)))
    val pre = Preprocess.vertexDeletion(g, 2, 2)
    assert(pre.active.toSeq == Seq(5, 6, 7, 8))
    assert(pre.layerCores(0).toSeq == Seq(5, 6, 7))
    assert(pre.layerCores(1).toSeq == pre.active.toSeq)
    val out = GreedyDCCS.run(g, 2, 2, 3)
    assert(answerAndStats(out) == sequentialRun(g, 2, 2, 3))
    assert(out.result.find(_.layers == Vector(0, 1)).get.vertices.isEmpty)
    out.result.foreach(c =>
      assert(c.vertices.toSeq == Dcc.compute(g, c.layers.toArray, 2).toSeq))
  }

  test("GD on survivors with high ids, some candidates dense and some peeled, equals the sequential GD") {
    // s <= copies: a candidate built from copies of one base layer has that
    // layer's core as its bound, one mixing both base layers needs a peel
    var mixed = 0
    for (seed <- 1 to 3) {
      val g = TestGraphs.shifted(replicated(490 + seed, 40, 3, 0.12), 50)
      for (d <- 1 to 3; s <- Seq(2, 3); k <- Seq(1, 4, 20)) {
        assert(Preprocess.vertexDeletion(g, d, s).active.length < g.numVertices)
        val (dense, peeled) = denseAndPeeled(g, d, s)
        if (dense > 0 && peeled > 0) mixed += 1
        assert(answerAndStats(GreedyDCCS.run(g, d, s, k)) == sequentialRun(g, d, s, k),
          s"seed=$seed d=$d s=$s k=$k")
      }
    }
    assert(mixed > 0)
  }

  test("ties on gain over 560 candidates break as in a sequential GD") {
    // 16 layers, s = 3: C(16, 3) = 560 candidates, enough that each round's
    // gains are split over several pool workers
    val g = replicated(470, 50, 8, 0.15)
    for ((d, k) <- Seq((2, 5), (2, 40), (1, 600))) {
      val out = GreedyDCCS.run(g, d, 3, k)
      assert(out.stats.candidatesGenerated == 560)
      assert(answer(out) == sequentialGD(g, d, 3, k), s"d=$d k=$k")
    }
  }

  test("GD from 4 threads at once on one shared graph equals the sequential answer") {
    // the threads ask different (d, s), so the graph's candidate family
    // changes hands between their queries; the counters must not show it
    val g = TestGraphs.random(430, 80, 6, 0.1)
    val params = Vector((2, 2, 5), (2, 3, 4), (3, 2, 3), (1, 4, 6))
    val expected = params.map { case (d, s, k) => sequentialRun(g, d, s, k) }
    val pool = Executors.newFixedThreadPool(4)
    try {
      val futures = (0 until 4).map { t =>
        pool.submit(new Callable[Vector[Int]] {
          // each thread walks the parameters from its own offset, repeatedly
          def call(): Vector[Int] = (0 until 5 * params.length).toVector.flatMap { r =>
            val p = (t + r) % params.length
            val (d, s, k) = params(p)
            if (answerAndStats(GreedyDCCS.run(g, d, s, k)) == expected(p)) None else Some(p)
          }
        })
      }
      futures.foreach(f => assert(f.get().isEmpty, "answers that differ"))
    } finally pool.shutdown()
  }

  test("bitset selection equals the int-array selection on random sets with ties") {
    val rng = new Random(800)
    for (universe <- Seq(0, 1, 63, 64, 65, 128, 200); round <- 1 to 5) {
      val words = (universe + 63) / 64
      // few distinct sets, each repeated: many gains tie in every round
      val distinct = Array.fill(1 + rng.nextInt(6)) {
        (0 until universe).filter(_ => rng.nextDouble() < 0.3).toArray
      }
      val sets = Array.fill(1 + rng.nextInt(30))(distinct(rng.nextInt(distinct.length)))
      for (k <- Seq(1, 2, 5, sets.length, sets.length + 3)) {
        val (picks, cover) = GreedyDCCS.select(sets.map(Bits.bitset(_, words)), k)
        assert((picks.toVector, cover) == intSelect(sets, k), s"universe=$universe round=$round k=$k")
      }
    }
  }

  test("GD on 63, 64, 65 and 128 survivors, with and without deleted vertices, equals the sequential GD") {
    for (m <- Seq(63, 64, 65, 128); extra <- Seq(0, 20)) {
      val g = withSurvivors(900 + m + extra, m, extra, 6)
      for (s <- Seq(2, 3); k <- Seq(1, 3, 100)) {
        // extra = 0: nothing is deleted and GD selects over the ids of g
        assert(Preprocess.vertexDeletion(g, 2, s).active.toSeq == (0 until m))
        val out = GreedyDCCS.run(g, 2, s, k)
        assert(answerAndStats(out) == sequentialRun(g, 2, s, k), s"m=$m extra=$extra s=$s k=$k")
        if (k == 100) assert(out.result.length == out.stats.candidatesGenerated) // k > C(6, s)
      }
    }
  }

  test("each candidate's bitset bound decodes to the intersection of its layer cores, and is dense where denseAndPeeled says") {
    val survivors = for (m <- Seq(63, 64, 65, 128); extra <- Seq(0, 20))
      yield withSurvivors(900 + m + extra, m, extra, 6) -> Seq((2, 2), (2, 3))
    val random = (1 to 3).flatMap { seed =>
      Seq(TestGraphs.shifted(TestGraphs.random(1500 + seed, 60, 5, 0.15), 40) ->
            Seq((1, 2), (2, 2), (2, 3), (3, 4), (2, 5)),
          TestGraphs.shifted(replicated(1510 + seed, 40, 3, 0.12), 50) ->
            Seq((1, 2), (2, 3), (3, 2)))
    }
    var dense, other = 0
    for ((g, params) <- survivors ++ random; (d, s) <- params) {
      val a = new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, d, s))
      val coreBits = a.coreBits
      var fired = 0
      for (combo <- (0 until g.numLayers).combinations(s)) {
        val clue = s"n=${g.numVertices} d=$d s=$s L=${combo.mkString(",")}"
        val bound = Bits.decode(Bits.bound(coreBits, combo))
        val exp = SetOps.intersectAll(combo.map(a.pre.layerCores))
        assert(bound.map(a.ids).toSeq == exp.toSeq, clue)
        val isDense = Bits.dense(a.layerCores, combo, bound.length)
        assert(isDense == combo.forall(a.pre.layerCores(_).length == exp.length), clue)
        if (isDense) { fired += 1; dense += 1 } else other += 1
      }
      assert(fired == denseAndPeeled(g, d, s)._1, s"n=${g.numVertices} d=$d s=$s")
    }
    assert(dense > 0 && other > 0)
  }

  test("the bit-row peel equals Dcc.compute on G[A], on Lemma-1 bounds and on random parts of them") {
    val rng = new Random(1600)
    var emptied, shrunk, outside = 0
    val graphs = (1 to 2).flatMap { seed =>
      Seq(TestGraphs.random(1600 + seed, 70, 5, 0.1),
          TestGraphs.shifted(TestGraphs.random(1610 + seed, 60, 4, 0.15), 45),
          TestGraphs.shifted(replicated(1620 + seed, 50, 3, 0.1), 30))
    }
    for (g <- graphs; (d, s) <- Seq((0, 1), (1, 1), (2, 1), (2, 2), (3, 2), (1, g.numLayers), (2, g.numLayers))) {
      val a = new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, d, s))
      val words = a.words
      val rows = Bits.rows(g, a.ids, a.layerCores, words)
      val coreBits = a.coreBits
      for (combo <- (0 until g.numLayers).combinations(s)) {
        val bound = Bits.bound(coreBits, combo)
        // a part of the bound: its members keep neighbours outside it
        val part = Bits.bitset(Bits.decode(bound).filter(_ => rng.nextDouble() < 0.7), words)
        for (b <- Seq(bound, part); dd <- Seq(-1, 0, d, d + 1, d + 20)) {
          val clue = s"n=${g.numVertices} d=$d s=$s L=${combo.mkString(",")} peel d=$dd"
          val members = Bits.decode(b)
          val exp = Dcc.compute(a.graph, combo.toArray, dd, members)
          val got = Bits.decode(Bits.peel(rows, combo.toArray, dd, b.clone()))
          assert(got.toSeq == exp.toSeq, clue)
          if (members.nonEmpty && got.isEmpty) emptied += 1
          if (got.nonEmpty && got.length < members.length) shrunk += 1
          if (members.exists(x => combo.exists(i => (0 until words).exists(w => (rows(i)(x)(w) & ~b(w)) != 0))))
            outside += 1
        }
      }
    }
    assert(emptied > 0 && shrunk > 0 && outside > 0)
  }

  test("GD takes each side of the bit-row rule and equals the sequential GD on both") {
    // withSurvivors' layers have mean degree about 2.5: 60 survivors fit one
    // word, so GD peels on bit rows; 200 and 300 take 4 and 5 words, so GD
    // peels with Dcc.compute on G[A]
    val sides = mutable.Set.empty[Boolean]
    for (m <- Seq(60, 200, 300); seed <- 1 to 2; s <- Seq(2, 3)) {
      val g = withSurvivors(1700 + m + seed, m, 20, 6)
      val a = new Preprocess.Survivors(g, Preprocess.vertexDeletion(g, 2, s))
      assert(a.ids.toSeq == (0 until m))
      assert(a.layerCores.exists(_.length < m)) // some candidate may need a peel
      assert(denseAndPeeled(g, 2, s)._2 > 0)
      val words = (m + 63) / 64
      val coreDegrees = a.layerCores.indices.flatMap(i => a.layerCores(i).map(g.degree(i, _)))
      val side = GreedyDCCS.bitRows(g, a.ids, a.layerCores, words)
      assert(side == words <= coreDegrees.sum.toDouble / coreDegrees.length, s"m=$m seed=$seed s=$s")
      sides += side
      for (k <- Seq(1, 4, 20))
        assert(answerAndStats(GreedyDCCS.run(g, 2, s, k)) == sequentialRun(g, 2, s, k),
          s"m=$m seed=$seed s=$s k=$k")
    }
    assert(sides == Set(true, false))
  }

  test("interleaved (d, s, k) queries on one graph equal those on a freshly built copy, counters included") {
    val g = TestGraphs.shifted(TestGraphs.random(432, 70, 6, 0.12), 10)
    def copy = MLGraph.fromEdges(g.numLayers, g.numVertices, g.edgeTriples)
    val queries = Seq((2, 2, 3), (2, 2, 5), (3, 2, 2), (2, 2, 3), (2, 3, 4), (2, 3, 1),
                      (3, 2, 6), (2, 2, 15), (1, 4, 6), (2, 3, 4), (1, 4, 1), (3, 2, 2))
    for ((d, s, k) <- queries) {
      val out = GreedyDCCS.run(g, d, s, k)
      assert(answerAndStats(out) == answerAndStats(GreedyDCCS.run(copy, d, s, k)), s"d=$d s=$s k=$k")
      // the graph keeps the family of the last (d, s); the same (d, s)
      // with another k reuses it
      val family = g.gdFamily
      assert(family.d == d && family.s == s)
      GreedyDCCS.run(g, d, s, k + 1)
      assert(g.gdFamily eq family)
    }
  }

  test("achieves the (1 - 1/e) bound vs the exact optimum on tiny instances") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.random(420 + seed, 16, 4, 0.25)
      val (d, s, k) = (2, 2, 2)
      val opt = ExactDCCS.optimum(g, d, s, k)
      val got = GreedyDCCS.run(g, d, s, k).coverSize
      assert(got >= math.ceil((1.0 - 1.0 / math.E) * opt).toInt - 1,
        s"seed=$seed: greedy $got vs optimum $opt")
    }
  }

  test("all three algorithms reject k = 0") {
    val g = TestGraphs.random(413, 20, 3, 0.25)
    intercept[IllegalArgumentException](GreedyDCCS.run(g, 2, 2, 0))
    intercept[IllegalArgumentException](BottomUpDCCS.run(g, 2, 2, 0))
    intercept[IllegalArgumentException](TopDownDCCS.run(g, 2, 2, 0))
  }

  test("empty graph yields empty cover") {
    val g = MLGraph.empty(3, 10)
    val out = GreedyDCCS.run(g, 1, 2, 2)
    assert(out.coverSize == 0)
    out.result.foreach(c => assert(c.vertices.isEmpty))
  }
}
