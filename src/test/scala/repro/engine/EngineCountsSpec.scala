package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading}
import repro.disk.{CostModel, DiskSim}
import repro.walk.WalkTask

/** Pins the exact simulated traffic of every engine configuration on one
  * fixed graph and task. The equivalence suite proves trajectories are
  * engine-invariant, but a change can keep every trajectory and still move a
  * block read, a vertex I/O or a walk write; this suite catches that. The
  * graph has two dangling vertices, so the sampling attempts that find no
  * neighbour are counted too (2 × 90 walks × 12 hops − 48 + 4 = 2116 steps).
  *
  * A deliberate change to an engine's I/O must update its row here and say
  * why in the same change.
  */
class EngineCountsSpec extends AnyFunSuite {
  private val g = TestGraphs.er(90, 200, seed = 51)
  private val bg = TestGraphs.blocked(g, 5)
  private val secondOrder = WalkTask.rwnv(g, p = 2.0, q = 0.5, walksPerVertex = 2, len = 12)
  private val firstOrder = WalkTask.deepwalk(g, walksPerVertex = 2, len = 12)
  private val learned = new BlockLoading.Learned(Array(0.0, 0.3, 0.6, 0.9, 1.2))

  /** Counters: blockIO, blockIOSeq, vertexIO, walkIOBytes, steps,
    * neighborWork, timeSlots, supersteps. Times (s): blockIO, vertexIO,
    * walkIO, cacheInit, exec, io, wall.
    */
  private final case class Row(counts: Seq[Long], secs: Seq[Double])

  private val secondOrderRows = Seq(
    Row(Seq(84L, 59L, 0L, 28640L, 2116L, 10405L, 28L, 7L),
        Seq(0.025948624000000007, 0.0, 1.002400000000006E-4, 0.0, 3.7758350000000176E-4, 0.02604886400000001, 0.02642644750000001)),
    Row(Seq(28L, 4L, 491L, 28640L, 2116L, 10405L, 28L, 7L),
        Seq(0.019616410000000004, 0.010311000000000011, 1.002400000000006E-4, 0.0, 3.7758350000000176E-4, 0.030027650000000017, 0.030405233500000017)),
    Row(Seq(136L, 68L, 0L, 34496L, 2116L, 10405L, 34L, 0L),
        Seq(0.06127962600000002, 0.0, 1.2073600000000082E-4, 0.0, 3.7758350000000247E-4, 0.06140036200000002, 0.06177794550000002)),
    Row(Seq(41L, 4L, 1111L, 47456L, 2116L, 10405L, 41L, 0L),
        Seq(0.030024096000000007, 0.023331000000000185, 1.6609599999999657E-4, 0.0, 3.775835000000024E-4, 0.05352119200000019, 0.05389877550000019)),
    Row(Seq(41L, 4L, 868L, 47456L, 2116L, 10405L, 41L, 0L),
        Seq(0.030024096000000007, 0.01822800000000014, 1.6609599999999657E-4, 8.029220000000001E-4, 3.775835000000024E-4, 0.04922111400000014, 0.04959869750000014)),
  )

  private val learnedRow =
    Row(Seq(66L, 41L, 73L, 28640L, 2116L, 10405L, 28L, 7L),
        Seq(0.024138250000000014, 0.0015329999999999999, 1.002400000000006E-4, 0.0, 3.7758350000000176E-4, 0.025771490000000015, 0.026149073500000015))

  private val firstOrderRows = Seq(
    Row(Seq(37L, 12L, 0L, 52288L, 2116L, 0L, 37L, 0L),
        Seq(0.021221726000000003, 0.0, 1.830079999999946E-4, 0.0, 3.702999999999879E-4, 0.021404733999999998, 0.021775033999999985)),
    Row(Seq(36L, 28L, 0L, 52288L, 2116L, 0L, 36L, 0L),
        Seq(0.009221000000000003, 0.0, 1.8300799999999457E-4, 0.0, 3.702999999999879E-4, 0.009404007999999998, 0.009774307999999987)),
    Row(Seq(37L, 29L, 0L, 52288L, 2116L, 0L, 37L, 0L),
        Seq(0.009321636000000003, 0.0, 1.8300799999999457E-4, 0.0, 3.702999999999879E-4, 0.009504643999999998, 0.009874943999999986)),
    Row(Seq(39L, 25L, 0L, 52288L, 2116L, 0L, 39L, 0L),
        Seq(0.013722890000000007, 0.0, 1.8300799999999484E-4, 0.0, 3.702999999999879E-4, 0.013905898000000002, 0.01427619799999999)),
    Row(Seq(36L, 15L, 0L, 52288L, 2116L, 0L, 36L, 0L),
        Seq(0.018321096000000002, 0.0, 1.8300799999999463E-4, 0.0, 3.702999999999879E-4, 0.018504103999999997, 0.018874403999999984)),
    Row(Seq(0L, 0L, 509L, 52288L, 2116L, 0L, 36L, 0L),
        Seq(0.0, 0.01068900000000001, 1.8300799999999457E-4, 0.0, 3.702999999999879E-4, 0.010872008000000004, 0.011242307999999993)),
  )

  private def measure(engine: WalkEngine, task: WalkTask): Row = {
    val sim = new DiskSim(CostModel.paperSsd, byteScale = 3.0, walkScale = 7.0)
    engine.run(bg, task, sim, new Array[Long](g.nV), new TraceCollector(task.totalWalks.toInt))
    Row(Seq(sim.blockIOCount, sim.blockIOSeqCount, sim.vertexIOCount, sim.walkIOBytes,
            sim.steps, sim.neighborWork, sim.timeSlots, sim.supersteps),
        Seq(sim.blockIOTimeSec, sim.vertexIOTimeSec, sim.walkIOTimeSec, sim.cacheInitTimeSec,
            sim.execTimeSec, sim.ioTimeSec, sim.wallTimeSec))
  }

  private def check(label: String, engine: WalkEngine, task: WalkTask, want: Row): Unit =
    test(s"$label ${engine.name} charges the pinned I/O and execution") {
      val got = measure(engine, task)
      assert(got.counts == want.counts)
      got.secs.zip(want.secs).zipWithIndex.foreach { case ((a, b), k) =>
        assert(math.abs(a - b) <= 1e-12 * math.max(math.abs(a), math.abs(b)),
          s"time #$k: got $a, want $b")
      }
    }

  EngineTestKit.secondOrderEngines.zip(secondOrderRows).zipWithIndex.foreach {
    case ((e, row), k) => check(s"second-order #$k", e, secondOrder, row)
  }
  check("second-order learned", new BiBlockEngine(learned), secondOrder, learnedRow)
  EngineTestKit.firstOrderEngines.zip(firstOrderRows).zipWithIndex.foreach {
    case ((e, row), k) => check(s"first-order #$k", e, firstOrder, row)
  }
}
