package repro.disk

/** SSD-like cost model. All engines are charged through these unit costs so
  * comparisons are apples-to-apples; the defaults are calibrated once against
  * the magnitudes of the paper's Table 3 (see DESIGN.md "Scale bridging") and
  * then held fixed for every experiment.
  *
  * @param seqSeekSec        setup latency of a sequential block read
  * @param randSeekSec       setup latency of a random (repositioning) block read
  * @param bytesPerSec       sequential bandwidth
  * @param vertexIOSec       amortized cost of one light random vertex read
  *                          (72-thread NVMe queue-depth amortization folded in)
  * @param stepBaseSec       amortized execution cost of sampling one walk step
  * @param stepPerNeighborSec extra execution cost per candidate neighbor
  *                          weighted during a second-order step
  * @param walkBytes         bytes per persisted walk: the paper's 128-bit walk
  *                          (§6.1, Fig. 7) packs source, previous vertex,
  *                          current-vertex offset, both block ids and the
  *                          hop into 16 bytes; walk-pool I/O is charged at
  *                          that size
  */
final case class CostModel(
    seqSeekSec: Double = 0.1e-3,
    randSeekSec: Double = 0.8e-3,
    bytesPerSec: Double = 2.0e9,
    vertexIOSec: Double = 3.0e-6,
    stepBaseSec: Double = 25e-9,
    stepPerNeighborSec: Double = 0.1e-9,
    walkBytes: Long = 16L,
)

object CostModel {
  /** The calibrated default used by all benchmarks. */
  val paperSsd: CostModel = CostModel()
}

/** Accounting for a single engine run.
  *
  * Event *counts* are the real, emergent outputs of the algorithms (block
  * I/O numbers, vertex I/O numbers, steps). Event *times* are
  * `count x unit cost`, optionally bridged to the paper's scale:
  *
  *   - `byteScale` multiplies byte-proportional costs (block and walk I/O)
  *     so a lite block is charged like its paper-sized counterpart;
  *   - `walkScale` multiplies per-walk/per-step-proportional costs (vertex
  *     I/Os, walk loads, execution) so the lite workload is charged like the
  *     paper's walk count x length.
  *
  * Sequential vs. random block reads are detected from the simulated disk
  * head position: a read starting where the previous one ended is sequential
  * (this is exactly why the triangular schedule's ascending ancillary loads
  * are cheap, §7.3 "Block-I/O comparison").
  */
final class DiskSim(
    val cost: CostModel = CostModel.paperSsd,
    val byteScale: Double = 1.0,
    val walkScale: Double = 1.0,
) {
  private var headPos: Long = Long.MinValue

  var blockIOCount: Long = 0
  var blockIOSeqCount: Long = 0
  var blockIOTimeSec: Double = 0.0

  var vertexIOCount: Long = 0
  var vertexIOTimeSec: Double = 0.0

  var walkIOBytes: Long = 0
  var walkIOTimeSec: Double = 0.0

  var steps: Long = 0
  var neighborWork: Long = 0
  var execTimeSec: Double = 0.0

  var cacheInitTimeSec: Double = 0.0
  var timeSlots: Long = 0
  var supersteps: Long = 0

  /** Charge a block read of `bytes` at disk offset `offset`. */
  def readBlock(offset: Long, bytes: Long): Unit = {
    val sequential = offset == headPos
    headPos = offset + bytes
    blockIOCount += 1
    if (sequential) blockIOSeqCount += 1
    val seek = if (sequential) cost.seqSeekSec else cost.randSeekSec
    blockIOTimeSec += seek + (bytes * byteScale) / cost.bytesPerSec
  }

  /** Charge `n` light random vertex reads (CSR segmentations of single
    * vertices). These are latency-bound; bytes are negligible next to the
    * amortized seek, so the unit cost absorbs them.
    */
  def readVertices(n: Long): Unit = {
    vertexIOCount += n
    vertexIOTimeSec += n * cost.vertexIOSec * walkScale
    headPos = Long.MinValue // random reads lose sequential position
  }

  /** Charge persisting or loading `n` walks to/from a disk walk pool.
    * Walk-pool bytes are proportional to the walk count, so only the
    * workload bridge applies (byteScale would double-count the scale-up).
    */
  def walkIO(n: Long): Unit = {
    val bytes = n * cost.walkBytes
    walkIOBytes += bytes
    walkIOTimeSec += (bytes * walkScale) / cost.bytesPerSec
  }

  /** Charge the sampling of one walk step whose current vertex has degree
    * `deg`; `secondOrder` adds the per-neighbor weighting work of Node2vec.
    */
  def chargeStep(deg: Int, secondOrder: Boolean): Unit = {
    steps += 1
    var t = cost.stepBaseSec
    if (secondOrder) {
      neighborWork += deg
      t += deg * cost.stepPerNeighborSec
    }
    execTimeSec += t * walkScale
  }

  /** One-off sequential scan (SGSC static-cache initialization, §7.1). */
  def chargeCacheInit(totalBytes: Long): Unit = {
    cacheInitTimeSec += cost.randSeekSec + (totalBytes * byteScale) / cost.bytesPerSec
    headPos = Long.MinValue
  }

  def ioTimeSec: Double =
    blockIOTimeSec + vertexIOTimeSec + walkIOTimeSec + cacheInitTimeSec

  def wallTimeSec: Double = ioTimeSec + execTimeSec

  def snapshot: DiskSim.Metrics = DiskSim.Metrics(
    wallTimeSec = wallTimeSec,
    execTimeSec = execTimeSec,
    blockIOCount = blockIOCount,
    blockIOSeqCount = blockIOSeqCount,
    blockIOTimeSec = blockIOTimeSec,
    vertexIOCount = vertexIOCount,
    vertexIOTimeSec = vertexIOTimeSec,
    walkIOTimeSec = walkIOTimeSec,
    cacheInitTimeSec = cacheInitTimeSec,
    steps = steps,
    timeSlots = timeSlots,
    supersteps = supersteps,
  )
}

object DiskSim {
  /** Immutable view of a run's accounting, used by the table harnesses. */
  final case class Metrics(
      wallTimeSec: Double,
      execTimeSec: Double,
      blockIOCount: Long,
      blockIOSeqCount: Long,
      blockIOTimeSec: Double,
      vertexIOCount: Long,
      vertexIOTimeSec: Double,
      walkIOTimeSec: Double,
      cacheInitTimeSec: Double,
      steps: Long,
      timeSlots: Long,
      supersteps: Long,
  ) {
    def ioTimeSec: Double = blockIOTimeSec + vertexIOTimeSec + walkIOTimeSec + cacheInitTimeSec
  }
}
