package repro.core

import java.util.stream.IntStream
import scala.reflect.ClassTag

/** Index-placed fork-join loop for iterations that share nothing. */
private[core] object Par {

  /** `Array.tabulate(n)(f)` with the calls to `f` spread over the JVM's
    * common `ForkJoinPool`. Slot `i` holds `f(i)` whatever thread ran it,
    * so the result equals the sequential one; `f` may write shared state
    * only where no other call reads or writes it (such as its own range of
    * a shared array).
    */
  def tabulate[T: ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }
}
