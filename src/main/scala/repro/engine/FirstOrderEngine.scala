package repro.engine

import repro.core.{BlockLoading, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** GraphWalker-style first-order engine (§7.8, Appendix A).
  *
  * One block is resident at a time; walks advance asynchronously while their
  * current vertex stays inside it and are re-associated with the block they
  * move into. The current-block scheduling strategy is pluggable (the five
  * strategies of Appendix A), and current-block loads optionally go through
  * the learning-based loading model — that is the "GraSorw" first-order
  * configuration of Table 7, versus "GraSorw-No-LBL" (iteration scheduling,
  * pure full load) and "GraphWalker" (state-aware scheduling, full load).
  */
final class FirstOrderEngine(
    scheduling: Scheduling,
    policy: BlockLoading.Policy = BlockLoading.AlwaysFull,
    loadLog: LoadLogCollector = null,
) extends WalkEngine {

  def name: String = s"FirstOrder(${scheduling.strategyName})"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    require(!task.model.isSecondOrder,
      "FirstOrderEngine only supports first-order models; use the bi-block engine")
    val pools = new WalkPools(bg.nBlocks)
    val step = new Stepping(bg, task, sim, visits, trace)

    // First-order walks need no initialization pass: they start when their
    // source block first becomes the current block (GraphWalker behavior).
    var nextId = 0L
    task.starts.foreach { case (v, count) =>
      var k = 0
      while (k < count) {
        pools.add(bg.blockOf(v), step.start(nextId, v))
        nextId += 1
        k += 1
      }
    }

    var slot = 0L
    var choice = scheduling.choose(pools.sizes, pools.minHops, slot)
    while (choice >= 0) {
      val b = choice
      val walks = pools.drain(b)
      if (walks.nonEmpty || scheduling.loadsEmpty)
        BlockLoading.loadAndRun(bg, b, walks, policy, sim, loadLog) { access =>
          sim.timeSlots += 1
          sim.walkIO(walks.length)
          val touch: Walk => Unit = w => access.touch(w.cur)
          walks.foreach { w0 =>
            val w = step.advance(w0, b, b, touch)
            if (w != null) { pools.add(bg.blockOf(w.cur), w); sim.walkIO(1) }
          }
        }
      slot += 1
      choice = scheduling.choose(pools.sizes, pools.minHops, slot)
    }
    sim.snapshot
  }
}
