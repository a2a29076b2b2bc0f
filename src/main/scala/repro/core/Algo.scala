package repro.core

/** The three DCCS algorithms, and the one place that dispatches on them. */
sealed abstract class Algo(val name: String) {
  def run(g: MLGraph, d: Int, s: Int, k: Int): GreedyDCCS.Output = this match {
    case Algo.GD => GreedyDCCS.run(g, d, s, k)
    case Algo.BU => BottomUpDCCS.run(g, d, s, k)
    case Algo.TD => TopDownDCCS.run(g, d, s, k)
  }
}

object Algo {
  case object GD extends Algo("GD")
  case object BU extends Algo("BU")
  case object TD extends Algo("TD")

  private val all = Seq(GD, BU, TD)

  /** The algorithm called `name` ("GD", "BU" or "TD"). */
  def apply(name: String): Algo =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown algorithm $name"))
}
