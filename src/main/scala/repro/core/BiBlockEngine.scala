package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.engine.{Init, Stepping, TraceCollector, Walk, WalkEngine}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The bi-block execution engine (§4, Algorithms 1 and 2).
  *
  * Current blocks are scheduled iteratively `0 .. N_B - 2`; within a time
  * slot, ancillary blocks are scheduled triangularly `b+1 .. N_B - 1`
  * (skipping empty buckets, like the iteration-based current schedule skips
  * empty pools). Walks live in the skewed storage (min-block pools), are
  * collected into buckets by Eq. 4, advance while their current vertex stays
  * inside either in-memory block, and are re-associated by the Alg. 2 case
  * analysis — including the bucket-extending rule of line 14.
  *
  * @param policy  ancillary-block loading policy (§5): pure full load,
  *                pure on-demand, or the learned threshold model
  * @param loadLog optional (block, η, t) sample collector for LBL training
  */
final class BiBlockEngine(
    policy: BlockLoading.Policy = BlockLoading.AlwaysFull,
    loadLog: LoadLogCollector = null,
) extends WalkEngine {

  def name: String = policy match {
    case BlockLoading.AlwaysFull     => "BiBlock(full)"
    case BlockLoading.AlwaysOnDemand => "BiBlock(on-demand)"
    case _: BlockLoading.Learned     => "GraSorw"
  }

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val nB = bg.nBlocks
    val storage = new SkewedWalkStorage(bg)
    val step = new Stepping(bg, task, sim, visits, trace)

    Init.run(step)(storage.persist)

    while (!storage.isEmpty) {
      sim.supersteps += 1
      var b = 0
      while (b < math.max(1, nB - 1)) { // current block iterates 0 .. N_B-2
        if (storage.pools.size(b) > 0) {
          val curWalks = storage.pools.drain(b)
          sim.walkIO(curWalks.length) // load the associated walks (Alg. 1 l.3)

          // Collect buckets (Eq. 4): by the "other" block of the pair, which
          // the skewed storage guarantees is above b.
          val buckets = Array.fill(nB)(new ArrayBuffer[Walk])
          curWalks.foreach { w =>
            val p =
              if (bg.blockOf(w.prev) == b) bg.blockOf(w.cur)
              else bg.blockOf(w.prev)
            require(p > b, s"walk ${w.id} in pool $b collected into bucket $p")
            buckets(p) += w
          }

          // Load the current block (always full — it is shared by all
          // buckets of the slot) and run the triangular ancillary sweep.
          sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
          sim.timeSlots += 1
          var i = b + 1
          while (i < nB) {
            val bucket = buckets(i)
            if (bucket.nonEmpty) BlockLoading.loadAndRun(bg, i, bucket, policy, sim, loadLog) { access =>
              // Only the ancillary block can be partly resident.
              val touch: Walk => Unit = { w =>
                if (bg.blockOf(w.cur) == i) access.touch(w.cur)
                if (bg.blockOf(w.prev) == i) access.touch(w.prev)
              }
              var idx = 0
              while (idx < bucket.length) { // may grow via bucket-extending
                val w = step.advance(bucket(idx), b, i, touch)
                idx += 1
                if (w != null) {
                  // Walk persistence — Alg. 2 case analysis. A walk that left
                  // to a block above i with its previous vertex in b joins
                  // that later bucket of this slot (bucket-extending, l.14);
                  // every other walk goes to its min(pre, cur) pool.
                  val cur = bg.blockOf(w.cur)
                  if (cur > i && bg.blockOf(w.prev) == b) buckets(cur) += w
                  else { storage.persist(w); sim.walkIO(1) }
                }
              }
            }
            i += 1
          }
        }
        b += 1
      }
    }
    sim.snapshot
  }
}
