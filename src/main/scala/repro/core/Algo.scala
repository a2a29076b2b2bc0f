package repro.core

/** The three DCCS algorithms, and the one place that dispatches on them. */
sealed abstract class Algo(val name: String) {
  /** `cfg` (the Fig. 28 ablation) applies to BU and TD; GD takes only the default. */
  def run(g: MLGraph, d: Int, s: Int, k: Int,
          cfg: Search.Config = Search.Config()): GreedyDCCS.Output = this match {
    case Algo.GD =>
      require(cfg == Search.Config(), s"GD runs only the full preprocessing, not $cfg")
      GreedyDCCS.run(g, d, s, k)
    case Algo.BU => BottomUpDCCS.run(g, d, s, k, cfg)
    case Algo.TD => TopDownDCCS.run(g, d, s, k, cfg)
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
