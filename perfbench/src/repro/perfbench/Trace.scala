package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core._
import scala.collection.mutable

/** A timed call into one layer. `query` is the query id (-1 for set-up);
  * `parent` is the id of the enclosing span (-1 for none).
  */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Times calls and, when enabled, keeps every span in memory until the run
  * writes them out. A disabled tracer still times the call (the untraced run
  * needs the latency) but records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0

  private def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Runs `body` (given the new span's id, for children) inside a span. */
  def span[A](name: String, query: Int, parent: Int = -1)(body: Int => A): (A, Span) = {
    val id = nextId
    nextId += 1
    val a0 = allocated()
    val t0 = System.nanoTime()
    val v = body(id)
    val t1 = System.nanoTime()
    val sp = Span(id, parent, query, name, t0, t1, allocated() - a0)
    if (enabled) spans += sp
    (v, sp)
  }
}

/** Per-layer work of the replayed pass, summed over its queries. */
final class LayerStats {
  var queries = 0
  var queryNs, queryAlloc, ingestNs, ingestAlloc = 0L
  var preprocessNs, preprocessAlloc, preprocessRounds, preprocessActive = 0L
  var dccCalls, dccNs, dccAlloc, dccScope, dccOut = 0L
  var setopsCalls, setopsNs = 0L
  var searchDccCalls, searchCandidates, searchSpace = 0L
  var replayMismatches = 0
}

/** Replays, from outside the program, the layer calls a query made, on the
  * same inputs, each inside a child span of the query's span. The program
  * has no tracing of its own yet, so a query's inner calls are re-issued
  * after it returns:
  *  - every algorithm: `Preprocess.vertexDeletion(g, d, s)`;
  *  - GD: `SetOps.intersectAll` and `Dcc.compute` for each of the C(l, s)
  *    candidates, in GD's enumeration order.
  * BU's and TD's search trees (and so `TopKDiversified`) depend on the
  * top-k state inside the program and are not replayed, nor is TD's
  * `CoreIndex`; their cost is the derived search time.
  */
object Replay {

  def apply(tracer: Tracer, st: LayerStats, g: MLGraph, q: QuerySpec,
            query: Int, parent: Int, out: GreedyDCCS.Output): Unit = {
    val (pre, ps) = tracer.span("preprocess.vertexDeletion", query, parent) { _ =>
      Preprocess.vertexDeletion(g, q.d, q.s)
    }
    st.preprocessNs += ps.endNs - ps.startNs
    st.preprocessAlloc += ps.allocBytes
    st.preprocessRounds += pre.rounds
    st.preprocessActive += pre.active.length

    q.algo match {
      case "GD" =>
        val byLayers = out.result.map(c => c.layers -> c.vertices.toSeq).toMap
        (0 until g.numLayers).combinations(q.s).foreach { combo =>
          val (bound, ss) = tracer.span("setops.intersectAll", query, parent) { _ =>
            SetOps.intersectAll(combo.map(pre.layerCores))
          }
          st.setopsCalls += 1
          st.setopsNs += ss.endNs - ss.startNs
          val cc =
            if (bound.isEmpty) Array.empty[Int]
            else {
              val (cc, ds) = tracer.span("dcc.compute", query, parent) { _ =>
                Dcc.compute(g, combo.toArray, q.d, bound)
              }
              st.dccCalls += 1
              st.dccNs += ds.endNs - ds.startNs
              st.dccAlloc += ds.allocBytes
              st.dccScope += bound.length
              st.dccOut += cc.length
              cc
            }
          byLayers.get(combo.toVector).foreach { vs =>
            if (vs != cc.toSeq) st.replayMismatches += 1
          }
        }
      case _ => ()
    }
  }
}
