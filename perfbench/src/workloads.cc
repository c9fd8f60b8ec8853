#include "workloads.h"

namespace perfbench {

using namespace mdsim;

namespace {

/// Figure 2's 16-MDS point on the single-heap engine: read-mostly general
/// workload whose working set fits in cache, with forwarding, migrations
/// and the balancer all active.
SimConfig fig2_dyn16(std::uint64_t seed) {
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 16, seed);
  cfg.duration = 14 * kSecond;
  cfg.warmup = 4 * kSecond;
  return cfg;
}

/// The figure 2 shape at 64 MDS on the parallel engine: 8 shards, each a
/// real 8-MDS cluster, exercising window barriers, mailbox drain, cohorts
/// and the timer wheel.
SimConfig sharded_8x8(std::uint64_t seed, int threads) {
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 64, seed);
  cfg.shards = 8;
  cfg.threads = threads;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  return cfg;
}

/// Write-heavy checkpoint storms on hot project directories: N-to-N create
/// bursts and shared-file setattrs drive the journal, dirfrag/GIGA+,
/// replication/coherence and cache churn.
SimConfig ckpt_storm(std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 8;
  cfg.num_clients = 2000;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 192;
  cfg.fs.num_projects = 4;
  // Every directory traversable: whether a storm's target is a 0700
  // directory (and every op in it fails) is then no longer a seed lottery.
  cfg.fs.world_readable_fraction = 1.0;
  cfg.cache_fraction = 0.2;
  cfg.workload = WorkloadKind::kScientific;
  cfg.scientific.compute_phase = kSecond;
  cfg.scientific.n_to_1_write_fraction = 0.3;
  cfg.duration = 28 * kSecond;
  cfg.warmup = 4 * kSecond;
  return cfg;
}

}  // namespace

std::uint64_t subseed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
}

std::optional<SimConfig> make_workload(const std::string& name,
                                       std::uint64_t seed, int threads) {
  if (name == "fig2_dyn16") return fig2_dyn16(seed);
  if (name == "sharded_8x8") return sharded_8x8(seed, threads);
  if (name == "ckpt_storm") return ckpt_storm(seed);
  return std::nullopt;
}

}  // namespace perfbench
