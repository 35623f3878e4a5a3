package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Scale
import repro.core.{BiBlockEngine, BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.engine.{FirstOrderEngine, Scheduling, WalkEngine}
import repro.graph.{BlockedGraph, CsrGraph, Datasets, GraphGen, GraphSpec, Partitioner}
import repro.walk.WalkTask

/** One benchmark workload: a seeded graph, a partition, a walk task and the
  * GraSorw engine configuration that runs it.
  *
  * `spec` is the dataset analog whose paper-scale constants feed
  * `Scale.sim` (σ_B, σ_W); the graph itself is regenerated from the
  * workload seed with that analog's generator parameters.
  */
final case class Workload(
    name: String,
    spec: GraphSpec,
    nV: Int,
    nBlocks: Int,
    firstOrder: Boolean,
    edges: (SparkSession, Long) => DataFrame,
    partition: CsrGraph => BlockedGraph,
    task: (CsrGraph, Long) => WalkTask,
) {

  /** The measured engine: GraSorw with the learned loading policy. */
  def engine(policy: BlockLoading.Policy): WalkEngine =
    if (firstOrder) new FirstOrderEngine(new Scheduling.Iteration, policy)
    else new BiBlockEngine(policy)

  def sim(bg: BlockedGraph, t: WalkTask): DiskSim = Scale.sim(spec, bg, t)

  /** LBL profiling (§5.2.2), the protocol of `Tables.lblPolicy` and
    * `Tables.lblPolicyFirstOrder`: one run under full load and one under
    * on-demand load, each logging (block, η, t) samples.
    */
  def profile(bg: BlockedGraph, t: WalkTask): (LoadLogCollector, LoadLogCollector) = {
    val fullLog = new LoadLogCollector
    val odLog = new LoadLogCollector
    if (firstOrder) {
      new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysFull, fullLog).run(bg, t, sim(bg, t))
      new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysOnDemand, odLog).run(bg, t, sim(bg, t))
    } else {
      new BiBlockEngine(BlockLoading.AlwaysFull, fullLog).run(bg, t, sim(bg, t))
      new BiBlockEngine(BlockLoading.AlwaysOnDemand, odLog).run(bg, t, sim(bg, t))
    }
    (fullLog, odLog)
  }

  def train(bg: BlockedGraph, logs: (LoadLogCollector, LoadLogCollector)): BlockLoading.Learned =
    LblTrainer.train(bg.nBlocks, logs._1, logs._2)
}

object Workloads {

  /** Generator seeds are spread apart because `GraphGen.rmat` draws level
    * `l` from `rand(seed + l)`: adjacent seeds would share most levels.
    */
  private def genSeed(seed: Long): Long = seed * 1000L + 7L

  /** R-MAT with the TW analog's parameters (levels 14, a/b/c .57/.19/.19). */
  private def powerLaw(tiny: Boolean): (Int, Int, (SparkSession, Long) => DataFrame) =
    if (tiny) (1 << 9, 4, (s, seed) => GraphGen.rmat(s, 9, 8_000, 0.57, 0.19, 0.19, genSeed(seed)))
    else (1 << 14, Datasets.tw.nBlocks,
          (s, seed) => GraphGen.rmat(s, 14, 450_000, 0.57, 0.19, 0.19, genSeed(seed)))

  /** The UK analog itself (clustered web graph, fixed generator seed); the
    * workload seed reaches only the walk task. Across generator seeds the
    * locality partition of this graph is bimodal (edge cut 9.9% or 13.2%,
    * 300 or 431 time slots), which would swamp every simulated metric.
    */
  private def web(tiny: Boolean): (Int, Int, (SparkSession, Long) => DataFrame) =
    if (tiny) (1_000, 5, (s, _) => GraphGen.clusteredWeb(s, 1_000, 20_000, 40, 0.9, 104))
    else (Datasets.uk.nV, Datasets.uk.nBlocks, (s, _) => Datasets.uk.gen(s))

  /** Walk counts are cut from the paper's (RWNV and DeepWalk 10 × 80, PRNV
    * 4|V| samples) so that set-up, which includes two LBL profiling runs,
    * repeats three times within one benchmark run; σ_W scales the simulated
    * costs back to paper size.
    */
  def apply(name: String, tiny: Boolean): Workload = name match {
    case "rwnv-powerlaw" =>
      val (nV, nB, gen) = powerLaw(tiny)
      Workload(name, Datasets.tw, nV, nB, firstOrder = false, gen,
        g => BlockedGraph.sequential(g, nB),
        (g, seed) => WalkTask.rwnv(g, walksPerVertex = 1, len = if (tiny) 10 else 6, seed = seed))
    case "prnv-powerlaw" =>
      val (nV, nB, gen) = powerLaw(tiny)
      Workload(name, Datasets.tw, nV, nB, firstOrder = false, gen,
        g => BlockedGraph.sequential(g, nB),
        (g, seed) => {
          val t = WalkTask.prnv(g, seed = seed)
          val perQuery = math.max(1, g.nV / 2 / t.starts.length)
          t.copy(starts = t.starts.map { case (v, _) => (v, perQuery) })
        })
    case "deepwalk-web" =>
      val (nV, nB, gen) = web(tiny)
      Workload(name, Datasets.uk, nV, nB, firstOrder = true, gen,
        g => Partitioner.locality(g, nB),
        (g, seed) => WalkTask.deepwalk(g, walksPerVertex = if (tiny) 2 else 4,
                                       len = if (tiny) 20 else 80, seed = seed))
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
