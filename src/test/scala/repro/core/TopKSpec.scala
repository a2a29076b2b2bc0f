package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TopKSpec extends AnyFunSuite {

  // Each core gets a fresh layer set: R rejects a layer set it already holds.
  private var nextLabel = 0
  private def mk(vs: Int*): Core = {
    nextLabel += 1
    Core(Vector(nextLabel), vs.toArray.sorted)
  }

  private def naiveCov(cores: Seq[Core]): Int =
    cores.flatMap(_.vertices).distinct.size

  private def naiveDelta(cores: Seq[Core], i: Int): Int = {
    val others = cores.indices.filter(_ != i).flatMap(j => cores(j).vertices).toSet
    cores(i).vertices.count(v => !others.contains(v))
  }

  test("Rule 1: inserts while |R| < k") {
    val t = new TopKDiversified(3)
    assert(t.tryUpdate(mk(1, 2)))
    assert(t.tryUpdate(mk(2, 3)))
    assert(t.tryUpdate(mk(9)))
    assert(t.size == 3 && t.covSize == 4)
  }

  test("Rule 2: replaces C* only when Eq.(1) holds") {
    val t = new TopKDiversified(2)
    t.tryUpdate(mk(1, 2, 3))
    t.tryUpdate(mk(4, 5))
    // cov = 5; need >= (1 + 1/2)*5 = 7.5 after replacing C* = {4,5}
    assert(!t.tryUpdate(mk(6, 7, 8, 9))) // cov would be 3+4=7 < 7.5
    assert(t.tryUpdate(mk(6, 7, 8, 9, 10))) // cov would be 8 >= 7.5
    assert(t.covSize == 8)
    assert(t.result.exists(_.vertices.sameElements(Array(6, 7, 8, 9, 10))))
  }

  test("sizeIfReplace matches the Size procedure semantics") {
    val t = new TopKDiversified(2)
    t.tryUpdate(mk(1, 2, 3))
    t.tryUpdate(mk(3, 4))
    // C* is {3,4} (delta=1 vs 2); replacing it with {5,6} -> {1,2,3} u {5,6}
    assert(t.sizeIfReplace(Array(5, 6)) == 5)
    // overlap with survivor is not double counted
    assert(t.sizeIfReplace(Array(1, 2)) == 3)
    // vertex exclusively covered by C* counts as new
    assert(t.sizeIfReplace(Array(4)) == 4)
  }

  test("deltaMin and thresholds") {
    val t = new TopKDiversified(2)
    t.tryUpdate(mk(1, 2, 3))
    t.tryUpdate(mk(3, 4))
    assert(t.deltaMin == 1)
    assert(t.orderPruneThreshold == 4.0 / 2 + 1)
    assert(t.eq2Threshold == (0.5 + 0.25) * 4 + 1.5 * 1)
    val t2 = new TopKDiversified(2)
    t2.tryUpdate(mk(1))
    assert(t2.orderPruneThreshold == Double.NegativeInfinity)
    assert(t2.satisfiesEq1(Array.empty[Int])) // vacuous while |R| < k
  }

  // Randomized consistency against naive recomputation.
  for (seed <- 1 to 15) {
    test(s"randomized update sequence stays consistent with naive model (seed=$seed)") {
      val rng = new Random(seed)
      val k = 1 + rng.nextInt(4)
      val t = new TopKDiversified(k)
      for (step <- 0 until 60) {
        val vs = (0 until 1 + rng.nextInt(8)).map(_ => rng.nextInt(25)).distinct.sorted.toArray
        val cand = Core(Vector(step), vs)

        val before = t.result
        if (before.size == k) {
          // verify the implementation's C* has the minimal naive delta and
          // sizeIfReplace matches a naive union computation for that slot
          val slot = t.minDeltaSlot
          val deltas = before.indices.map(naiveDelta(before, _))
          assert(deltas(slot) == deltas.min)
          assert(t.deltaMin == deltas.min)
          val naiveSz = (before.indices.filter(_ != slot).flatMap(i => before(i).vertices)
            ++ vs).distinct.size
          assert(t.sizeIfReplace(vs) == naiveSz)
        }
        t.tryUpdate(cand)
        assert(t.covSize == naiveCov(t.result), s"covSize diverged at step $step")
        assert(t.size == math.min(k, step + 1))
      }
    }
  }

  test("duplicate insertions do not corrupt coverage accounting") {
    val t = new TopKDiversified(3)
    t.tryUpdate(mk(1, 2))
    t.tryUpdate(mk(1, 2))
    t.tryUpdate(mk(1, 2))
    assert(t.covSize == 2 && t.deltaMin == 0)
  }

  test("a core whose layer set is already in R is rejected") {
    val t = new TopKDiversified(2)
    assert(t.tryUpdate(Core(Vector(0, 1), Array(1, 2))))
    assert(!t.tryUpdate(Core(Vector(0, 1), Array(1, 2)))) // Rule 1 would insert it
    assert(t.size == 1 && t.covSize == 2)
    assert(t.tryUpdate(Core(Vector(0, 2), Array(3))))
    // R is full and C* is {3}; Eq. (1) would accept this replacement
    assert(t.sizeIfReplace(Array(3, 4, 5, 6)) >= 1.5 * t.covSize)
    assert(!t.tryUpdate(Core(Vector(0, 1), Array(3, 4, 5, 6))))
    assert(t.result.map(_.layers) == Vector(Vector(0, 1), Vector(0, 2)))
    assert(t.covSize == 3)
  }

  test("empty candidate cores are handled") {
    val t = new TopKDiversified(2)
    t.tryUpdate(Core(Vector(0), Array.empty[Int]))
    t.tryUpdate(mk(1))
    assert(t.covSize == 1)
    // replacing the empty C* requires cov >= 1.5 -> {2} alone gives 2
    assert(t.tryUpdate(mk(2, 3)))
    assert(t.covSize == 3)
  }
}
