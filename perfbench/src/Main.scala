package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.core.BlockLoading
import repro.disk.DiskSim
import repro.graph.{BlockedGraph, CsrGraph}
import repro.walk.WalkTask

/** Benchmark entry point: one workload in one JVM.
  *
  * Untraced (`--trace 0`): set up three times, then call `WalkEngine.run`
  * repeatedly for `--seconds`, checking every call against one replay, and
  * print the end-to-end metrics. Traced (`--trace 1`): the same set-up, then
  * alternate untraced calls with calls wrapped in a counting loading policy
  * and JVM counters, and print the per-layer metrics. Every timing is taken
  * here, around calls into the program's public API.
  *
  * The last stdout line is the JSON result. The exit code is 0 only when
  * every engine call agreed with the replay and with every other call.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        tiny: Boolean, corruptVisits: Boolean)

  val SetupRounds = 3

  def parse(argv: Array[String]): Args = {
    val kv = argv.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    Args(need("--workload"), need("--seed").toLong, need("--seconds").toDouble,
         need("--trace") == "1", argv.contains("--tiny"), argv.contains("--corrupt-visits"))
  }

  // ---- timing helpers ----------------------------------------------------

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  // ---- set-up --------------------------------------------------------------

  /** One set-up round: what a user repeats for every graph and task. */
  final case class Setup(bg: BlockedGraph, task: WalkTask, policy: BlockLoading.Learned,
                         genS: Double, csrS: Double, partitionS: Double,
                         profileS: Double, trainS: Double) {
    def totalS: Double = genS + csrS + partitionS + profileS + trainS
  }

  def setup(w: Workload, spark: SparkSession, seed: Long): Setup = {
    // GraphGen DataFrame plus its collect; CsrGraph.fromEdges is timed apart.
    val ((srcs, dsts), genS) = timed {
      val rows = w.edges(spark, seed).select("src", "dst").collect()
      (rows.map(_.getInt(0)), rows.map(_.getInt(1)))
    }
    val (g, csrS) = timed(CsrGraph.fromEdges(w.nV, srcs, dsts))
    val (bg, partitionS) = timed(w.partition(g))
    val task = w.task(bg.g, seed)
    val (logs, profileS) = timed(w.profile(bg, task))
    val (policy, trainS) = timed(w.train(bg, logs))
    Setup(bg, task, policy, genS, csrS, partitionS, profileS, trainS)
  }

  // ---- measured engine calls ----------------------------------------------

  /** Counts the loads a policy decides; the decision itself is unchanged. */
  final class CountingPolicy(inner: BlockLoading.Policy) extends BlockLoading.Policy {
    var full = 0L
    var onDemand = 0L
    def mode(block: Int, nWalks: Int, nVertices: Int): BlockLoading.Mode = {
      val m = inner.mode(block, nWalks, nVertices)
      if (m == BlockLoading.Full) full += 1 else onDemand += 1
      m
    }
  }

  final case class Call(sim: DiskSim, visits: Array[Long], seconds: Double,
                        allocBytes: Long, gcS: Double, counting: CountingPolicy, failed: Long) {
    def stepsPerS: Double = sim.steps / seconds
  }

  /** Every simulated counter and time of a run, for exact comparisons. */
  def simCounters(sim: DiskSim): (DiskSim.Metrics, Long, Long) =
    (sim.snapshot, sim.walkIOBytes, sim.neighborWork)

  /** One timed `WalkEngine.run`, checked against the replay `ref`. */
  def call(w: Workload, s: Setup, ref: Replay.Result, traced: Boolean, corrupt: Boolean): Call = {
    val sim = w.sim(s.bg, s.task)
    val visits = new Array[Long](s.bg.g.nV)
    if (!traced) {
      val engine = w.engine(s.policy)
      val (_, sec) = timed(engine.run(s.bg, s.task, sim, visits))
      if (corrupt) visits(s.task.starts.head._1) += 1
      Call(sim, visits, sec, 0L, 0.0, null, Replay.failedSteps(ref, visits, sim.steps))
    } else {
      val counting = new CountingPolicy(s.policy)
      val engine = w.engine(counting)
      val gc0 = gcSeconds
      val a0 = threads.getCurrentThreadAllocatedBytes
      val (_, sec) = timed(engine.run(s.bg, s.task, sim, visits))
      val alloc = threads.getCurrentThreadAllocatedBytes - a0
      Call(sim, visits, sec, alloc, gcSeconds - gc0, counting, Replay.failedSteps(ref, visits, sim.steps))
    }
  }

  // ---- output --------------------------------------------------------------

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def json(correct: Boolean, attempted: Long, failed: Long,
           metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workloads(args.workload, args.tiny)
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)

    val (spark, sessionS) = timed {
      SparkSession.builder
        .master(s"local[$cores]")
        .appName("perfbench")
        // Fixed so that the generated graph does not depend on the core count
        // (rand() is seeded per partition).
        .config("spark.default.parallelism", 4)
        .config("spark.sql.shuffle.partitions", 4)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", false)
        .getOrCreate()
    }
    val beforeRoundsS = (System.currentTimeMillis() - jvmStartMs) / 1e3

    val rounds = (1 to SetupRounds).map(_ => setup(w, spark, args.seed))
    val s = rounds.last
    val setupS = beforeRoundsS + median(rounds.map(_.totalS))

    val (ref, replayS) = timed(Replay.run(s.bg, s.task, w.firstOrder))

    // Measured window: untraced calls only, or untraced and traced calls in
    // alternation so that the tracing overhead is measured in one process.
    val plain = new ArrayBuffer[Call]
    val traced = new ArrayBuffer[Call]
    val minCalls = if (args.tiny) 1 else 3
    val windowStart = System.nanoTime()
    def elapsed = (System.nanoTime() - windowStart) / 1e9
    // Only the first call keeps its visit array, so that the retained heap
    // does not grow with the number of calls.
    def keep(c: Call) = if (plain.isEmpty) c else c.copy(visits = null)
    while (elapsed < args.seconds || plain.length < minCalls || (args.trace && traced.length < minCalls)) {
      plain += keep(call(w, s, ref, traced = false, args.corruptVisits && plain.isEmpty))
      if (args.trace) traced += keep(call(w, s, ref, traced = true, corrupt = false))
    }

    // Check: every call against the replay, and all simulated counters equal.
    val all = (plain ++ traced).toSeq
    val attempted = ref.steps * all.length
    val failed = all.map(_.failed).sum
    val countersEqual = all.forall(c => simCounters(c.sim) == simCounters(plain.head.sim))
    val correct = failed == 0 && countersEqual

    val sim = plain.head.sim
    val steps = sim.steps.toDouble
    val stepsPerS = median(plain.map(_.stepsPerS).toSeq)

    val metrics: Seq[(String, Double, String)] = if (!args.trace) {
      System.gc(); System.gc()
      val retainedMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
      java.lang.ref.Reference.reachabilityFence(s)
      java.lang.ref.Reference.reachabilityFence(plain)
      Seq(
        ("steps_per_s", stepsPerS, "steps/s"),
        ("setup_s", setupS, "s"),
        ("sim_wall_s", sim.wallTimeSec, "s"),
        ("sim_io_s", sim.ioTimeSec, "s"),
        ("retained_heap_mb", retainedMb, "MiB"),
      )
    } else {
      val replays = replayS +: (1 until SetupRounds).map(_ => timed(Replay.run(s.bg, s.task, w.firstOrder))._2)
      val replayMedS = median(replays)
      val runS = median(traced.map(_.seconds).toSeq)
      val c = traced.head.counting
      val loads = (c.full + c.onDemand).toDouble
      def med(f: Setup => Double) = median(rounds.map(f))
      Seq(
        ("graph.session_s", sessionS, "s"),
        ("graph.gen_s", med(_.genS), "s"),
        ("graph.csr_s", med(_.csrS), "s"),
        ("graph.partition_s", med(_.partitionS), "s"),
        ("graph.edges", s.bg.g.nEdgesUndirected.toDouble, "count"),
        ("graph.edge_cut", s.bg.edgeCut, "ratio"),
        ("core.lbl_profile_s", med(_.profileS), "s"),
        ("core.lbl_train_s", med(_.trainS), "s"),
        ("core.loads_full", c.full.toDouble, "count"),
        ("core.loads_ondemand", c.onDemand.toDouble, "count"),
        ("core.ondemand_frac", if (loads == 0) 0.0 else c.onDemand / loads, "ratio"),
        ("core.time_slots", sim.timeSlots.toDouble, "count"),
        ("core.supersteps", sim.supersteps.toDouble, "count"),
        ("engine.run_s", runS, "s"),
        ("engine.self_s", runS - replayMedS, "s"),
        ("engine.alloc_bytes_per_step", median(traced.map(_.allocBytes / steps).toSeq), "B/step"),
        ("engine.gc_s", median(traced.map(_.gcS).toSeq), "s"),
        ("walk.replay_s", replayMedS, "s"),
        ("walk.ns_per_step", replayMedS / steps * 1e9, "ns/step"),
        ("walk.neighbors_per_step", sim.neighborWork / steps, "nbr/step"),
        ("disk.block_io", sim.blockIOCount.toDouble, "count"),
        ("disk.block_io_seq", sim.blockIOSeqCount.toDouble, "count"),
        ("disk.block_seq_frac", sim.blockIOSeqCount.toDouble / math.max(1L, sim.blockIOCount), "ratio"),
        ("disk.vertex_io", sim.vertexIOCount.toDouble, "count"),
        ("disk.walk_io_bytes", sim.walkIOBytes.toDouble, "B"),
        ("disk.steps", steps, "count"),
        ("disk.block_io_s", sim.blockIOTimeSec, "s"),
        ("disk.vertex_io_s", sim.vertexIOTimeSec, "s"),
        ("disk.walk_io_s", sim.walkIOTimeSec, "s"),
        ("disk.cache_init_s", sim.cacheInitTimeSec, "s"),
        ("disk.exec_s", sim.execTimeSec, "s"),
        ("trace.overhead_frac", 1 - median(traced.map(_.stepsPerS).toSeq) / stepsPerS, "ratio"),
        ("failed_frac", failed.toDouble / attempted, "ratio"),
      )
    }

    spark.stop()

    println(f"# workload=${w.name} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      f"V=${s.bg.g.nV} E=${s.bg.g.nEdgesUndirected} blocks=${s.bg.nBlocks} walks=${s.task.totalWalks} " +
      f"steps=${sim.steps} calls=${plain.length}+${traced.length}")
    val perCall = plain.map(_.stepsPerS).sorted
    println(f"# steps/s per call: min ${perCall.head}%.0f median $stepsPerS%.0f max ${perCall.last}%.0f; " +
      "set-up rounds (s): " + rounds.map(r => f"${r.totalS}%.2f").mkString(" ") +
      f"; JVM start to session ready: $beforeRoundsS%.2f s")
    if (args.trace)
      println(s"# disk counters identical with and without the counting policy: $countersEqual")
    if (!correct)
      Console.err.println(s"CHECK FAILED: workload=${w.name} seed=${args.seed}: " +
        s"$failed of $attempted replayed steps disagree; simulated counters equal across calls: $countersEqual")
    println(json(correct, attempted, failed, metrics))
    System.out.flush()
    if (!correct) sys.exit(1)
  }
}
