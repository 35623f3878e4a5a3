package repro.core

import repro.engine.{Walk, WalkPools}
import repro.graph.BlockedGraph

/** Skewed walk storage (§4.3.1): a walk w_u^v lives in the pool of block
  * `min(B(u), B(v))`, so that under the triangular schedule it is always
  * picked up — either when its smaller block is the current block, or when
  * its larger block is loaded as that slot's ancillary block.
  */
final class SkewedWalkStorage(bg: BlockedGraph) {
  val pools = new WalkPools(bg.nBlocks)

  /** The association rule: min of the two blocks. Initial walks (prev = -1)
    * cannot occur here — initialization (App. B) guarantees hop >= 1 — and
    * neither can walks with both vertices in one block, which the engine
    * would still be advancing. Every persist checks both.
    */
  def homeBlock(w: Walk): Int = {
    require(w.prev >= 0, s"walk ${w.id} persisted before its first step")
    val pb = bg.blockOf(w.prev); val cb = bg.blockOf(w.cur)
    require(pb != cb, s"walk ${w.id} persisted with prev and cur in block $pb")
    math.min(pb, cb)
  }

  def persist(w: Walk): Unit = pools.add(homeBlock(w), w)

  def isEmpty: Boolean = pools.isEmpty

  /** Invariant check used by tests: every pooled walk sits in min(pre, cur)
    * and never has both vertices in one block.
    */
  def checkInvariants(): Unit = {
    var b = 0
    while (b < bg.nBlocks) {
      pools.pools(b).foreach { w =>
        val pb = bg.blockOf(w.prev); val cb = bg.blockOf(w.cur)
        require(pb != cb, s"walk ${w.id} has prev and cur in the same block $pb")
        require(math.min(pb, cb) == b, s"walk ${w.id} in pool $b but min($pb,$cb)")
      }
      b += 1
    }
  }
}
