package repro.engine

import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** In-memory state of one walk.
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). Engines charge
  * `CostModel.walkBytes` (the paper's 128-bit persisted walk) on every pool
  * read/write.
  */
final case class Walk(id: Long, src: Int, prev: Int, cur: Int, hop: Int)

/** Per-block walk pools ("walk pool" + disk walk storage of §3). The
  * association rule (traditional = current block; skewed = min(pre, cur)
  * block) is the caller's responsibility — this holds the buffers and the
  * summaries the scheduling strategies consume.
  */
final class WalkPools(val nBlocks: Int) {
  val pools: Array[ArrayBuffer[Walk]] = Array.fill(nBlocks)(new ArrayBuffer[Walk])

  def add(b: Int, w: Walk): Unit = pools(b) += w

  def isEmpty: Boolean = pools.forall(_.isEmpty)

  def size(b: Int): Int = pools(b).length

  def sizes: Array[Long] = pools.map(_.length.toLong)

  /** Minimum hop count per pool (Int.MaxValue for empty pools) — the
    * Min-Height strategy's input.
    */
  def minHops: Array[Int] =
    pools.map(p => if (p.isEmpty) Int.MaxValue else p.iterator.map(_.hop).min)

  /** Remove and return the walks of pool `b`. */
  def drain(b: Int): ArrayBuffer[Walk] = {
    val out = pools(b)
    pools(b) = new ArrayBuffer[Walk]
    out
  }
}

/** Records full trajectories for the engine-equivalence tests. */
final class TraceCollector(nWalks: Int) {
  val paths: Array[ArrayBuffer[Int]] = Array.fill(nWalks)(new ArrayBuffer[Int])
  def start(id: Long, src: Int): Unit = paths(id.toInt) += src
  def step(id: Long, v: Int): Unit = paths(id.toInt) += v
}

/** The one walk-advance kernel (Alg. 2 `UpdateWalk`), built once per engine
  * run. Every engine creates and advances its walks through it, so
  * trajectories are engine-independent (deterministic counter RNG),
  * execution cost is charged uniformly, and the optional visit and trace
  * recorders are fed in one place.
  *
  * @param visits optional per-vertex visit accumulator
  * @param trace  optional full-trajectory recorder
  */
final class Stepping(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                     visits: Array[Long], trace: TraceCollector) {

  /** Create walk `id` at source `v` and record its first visit. */
  def start(id: Long, v: Int): Walk = {
    if (visits != null) visits(v) += 1
    if (trace != null) trace.start(id, v)
    Walk(id, v, -1, v, 0)
  }

  /** Advance `w` while its current vertex lies in block `b` or `i`
    * (single-block engines pass `i = b`). `beforeStep` runs before each
    * sampling attempt; engines charge their residency I/O there. Returns the
    * walk once it leaves both blocks, or null once it has ended (dangling
    * vertex or the task's stop rule).
    */
  def advance(w0: Walk, b: Int, i: Int, beforeStep: Walk => Unit): Walk = {
    var w = w0
    var cb = bg.blockOf(w.cur)
    while (cb == b || cb == i) {
      beforeStep(w)
      val z = Stepping.sample(bg.g, task, w, sim)
      if (z < 0) return null
      w = Walk(w.id, w.src, w.cur, z, w.hop + 1)
      if (visits != null) visits(z) += 1
      if (trace != null) trace.step(w.id, z)
      if (task.stopsAfter(w.id, w.hop)) return null
      cb = bg.blockOf(z)
    }
    w
  }
}

object Stepping {

  /** A `beforeStep` hook that charges nothing. */
  val NoHook: Walk => Unit = _ => ()

  /** Sample the next vertex for `w`; charges execution cost. Returns -1 if
    * the walk is stuck on a dangling vertex.
    */
  def sample(g: repro.graph.CsrGraph, task: WalkTask, w: Walk, sim: DiskSim): Int = {
    sim.chargeStep(g.degree(w.cur), task.model.isSecondOrder && w.prev >= 0)
    task.model.sampleNext(g, w.prev, w.cur, task.moveDraw(w.id, w.hop))
  }
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Runs initialization, invoking `persist` for every surviving walk (its
    * current vertex is outside its source block).
    */
  def run(step: Stepping)(persist: Walk => Unit): Unit = {
    val bg = step.bg
    // Group start vertices by block for the sequential init scan.
    val startsByBlock = Array.fill(bg.nBlocks)(new ArrayBuffer[(Int, Int)])
    step.task.starts.foreach { case (v, c) => if (c > 0) startsByBlock(bg.blockOf(v)) += ((v, c)) }
    var nextId = 0L
    // Walk IDs must be identical across engines: assign in (block, start) order.
    var b = 0
    while (b < bg.nBlocks) {
      if (startsByBlock(b).nonEmpty) {
        step.sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
        step.sim.timeSlots += 1
        startsByBlock(b).foreach { case (v, count) =>
          var k = 0
          while (k < count) {
            val w = step.advance(step.start(nextId, v), b, b, Stepping.NoHook)
            nextId += 1
            if (w != null) persist(w)
            k += 1
          }
        }
      }
      b += 1
    }
  }
}
