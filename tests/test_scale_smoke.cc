// Large-cohort smoke: one hundred thousand clients through the sharded
// engine on a short horizon. Not a benchmark — this guards the scale
// path's invariants (dense per-client state, exact per-client timers,
// delivery batching, catalog sampling) at a population two orders of
// magnitude past the unit tests, and checks the run is bit-identical
// across worker-thread counts.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/sharded_cluster.h"

namespace mdsim {
namespace {

struct ScaleRun {
  RunResult result;
  std::uint64_t events = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t remote_ops = 0;
};

ScaleRun run_100k(int threads) {
  // Same dense shape as the bench/sim_scale ladder rungs (1 MDS per
  // shard, 15 ms think time), population pushed to 1e5 on a horizon just
  // long enough to exercise steady state after warmup.
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 8);
  cfg.num_clients = 100000;
  cfg.shards = 8;
  cfg.threads = threads;
  cfg.duration = kSecond / 2;
  cfg.warmup = kSecond / 8;
  ShardedClusterSim cluster(cfg);
  cluster.run();
  ScaleRun r;
  r.result = cluster.result();
  r.events = cluster.engine().events_executed();
  r.cross_posts = cluster.engine().cross_posts();
  r.remote_ops = cluster.remote_ops();
  return r;
}

// Non-general workloads now run sharded (each shard wires the workload
// against its own tree: a flash crowd picks one seeded target per
// shard, a shifting run moves clients within its shard's namespace).
// Smoke both paths and require thread-count invariance.
ScaleRun run_workload(WorkloadKind kind, int threads, int shards = 4,
                      SimTime flash_base_think = 0) {
  SimConfig cfg = kind == WorkloadKind::kFlashCrowd
                      ? flash_crowd_config(/*traffic_control=*/true)
                      : shift_config(StrategyKind::kDynamicSubtree);
  cfg.workload = kind;
  cfg.num_clients = 2000;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.flash.base_think = flash_base_think;
  cfg.duration = cfg.warmup + kSecond;
  ShardedClusterSim cluster(cfg);
  cluster.run();
  ScaleRun r;
  r.result = cluster.result();
  r.events = cluster.engine().events_executed();
  return r;
}

TEST(ScaleSmoke, FlashCrowdAndShiftingRunShardedDeterministically) {
  for (WorkloadKind kind :
       {WorkloadKind::kFlashCrowd, WorkloadKind::kShifting}) {
    const ScaleRun a = run_workload(kind, /*threads=*/1);
    const ScaleRun b = run_workload(kind, /*threads=*/4);
    EXPECT_GT(a.result.replies, 500u) << workload_name(kind);
    EXPECT_EQ(a.events, b.events) << workload_name(kind);
    EXPECT_EQ(a.result.replies, b.result.replies) << workload_name(kind);
    EXPECT_EQ(a.result.hit_rate, b.result.hit_rate) << workload_name(kind);
  }
  // Every shard installs the flash crowd's background pool, as the single
  // engine does: a steady background load must change the run.
  const ScaleRun crowd_only =
      run_workload(WorkloadKind::kFlashCrowd, 1, /*shards=*/2);
  const ScaleRun with_background = run_workload(
      WorkloadKind::kFlashCrowd, 1, /*shards=*/2, 100 * kMillisecond);
  EXPECT_NE(crowd_only.result.replies, with_background.result.replies);
}

TEST(ScaleSmoke, HundredThousandClientsRunAndStayDeterministic) {
  const ScaleRun a = run_100k(/*threads=*/1);

  // Invariants: the cohort made real progress and the stats layer kept
  // its books. Latency stays within the simulated timeout budget, every
  // shard's MDS group served traffic, and failure give-ups are a small
  // minority on a healthy cluster.
  EXPECT_GT(a.result.replies, 20000u);
  EXPECT_GT(a.result.avg_mds_throughput, 0.0);
  EXPECT_GT(a.result.hit_rate, 0.5);
  EXPECT_LE(a.result.hit_rate, 1.0);
  EXPECT_GE(a.result.forward_fraction, 0.0);
  EXPECT_LE(a.result.forward_fraction, 1.0);
  EXPECT_GT(a.result.mean_latency_ms, 0.0);
  // 1e5 clients over-drive this shape into the paper's disk-bound regime,
  // so give-ups are not rare — but completions must still dominate.
  EXPECT_LT(a.result.failures, a.result.replies);
  EXPECT_GT(a.remote_ops, 0u);

  // Bit-identical across thread counts: same events, same aggregate
  // metrics, down to the double.
  const ScaleRun b = run_100k(/*threads=*/4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.cross_posts, b.cross_posts);
  EXPECT_EQ(a.remote_ops, b.remote_ops);
  EXPECT_EQ(a.result.replies, b.result.replies);
  EXPECT_EQ(a.result.failures, b.result.failures);
  EXPECT_EQ(a.result.avg_mds_throughput, b.result.avg_mds_throughput);
  EXPECT_EQ(a.result.hit_rate, b.result.hit_rate);
  EXPECT_EQ(a.result.forward_fraction, b.result.forward_fraction);
  EXPECT_EQ(a.result.mean_latency_ms, b.result.mean_latency_ms);
}

}  // namespace
}  // namespace mdsim
