package perfbench

import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** Independent re-execution of a walk task, used to check an engine run.
  *
  * Every walk is re-run from its source with only the public
  * `WalkTask.moveDraw`, `TransitionModel.sampleNext` and
  * `WalkTask.stopsAfter`. Trajectories are pure functions of
  * (task seed, walk id, hop), so the per-vertex visit counts and the step
  * total must equal the engine's whatever order it scheduled blocks in.
  */
object Replay {

  final case class Result(visits: Array[Long], steps: Long)

  /** Walk ids follow the engines: `Init.run` numbers walks block by block
    * (starts in task order within a block, zero-count starts skipped);
    * `FirstOrderEngine` numbers them in task order. A step is counted for
    * every sampling attempt, including the one that finds a dangling vertex,
    * as `Stepping.sample` charges it.
    */
  def run(bg: BlockedGraph, task: WalkTask, firstOrder: Boolean): Result = {
    val g = bg.g
    val visits = new Array[Long](g.nV)
    var steps = 0L
    var id = 0L

    def walk(src: Int): Unit = {
      visits(src) += 1
      var prev = -1
      var cur = src
      var hop = 0
      var alive = true
      while (alive) {
        steps += 1
        val z = task.model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
        if (z < 0) alive = false
        else {
          prev = cur; cur = z; hop += 1
          visits(z) += 1
          if (task.stopsAfter(id, hop)) alive = false
        }
      }
      id += 1
    }

    def walkAll(v: Int, count: Int): Unit = {
      var k = 0
      while (k < count) { walk(v); k += 1 }
    }

    if (firstOrder) task.starts.foreach { case (v, c) => walkAll(v, c) }
    else {
      var b = 0
      while (b < bg.nBlocks) {
        task.starts.foreach { case (v, c) => if (c > 0 && bg.blockOf(v) == b) walkAll(v, c) }
        b += 1
      }
    }
    Result(visits, steps)
  }

  /** Steps on which an engine run disagrees with the replay: the step-count
    * difference plus every visit count that differs, capped at the steps
    * attempted. Zero exactly when both agree.
    */
  def failedSteps(ref: Result, visits: Array[Long], steps: Long): Long = {
    var diff = math.abs(steps - ref.steps)
    var v = 0
    while (v < ref.visits.length) { diff += math.abs(visits(v) - ref.visits(v)); v += 1 }
    math.min(diff, ref.steps)
  }
}
