// Top-level simulation configuration and per-experiment presets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "client/hedge_policy.h"
#include "client/retry_policy.h"
#include "fstree/generator.h"
#include "mds/params.h"
#include "net/network.h"
#include "strategy/partition.h"
#include "workload/flash_crowd.h"
#include "workload/general.h"
#include "workload/scientific.h"
#include "workload/shifting.h"

namespace mdsim {

enum class WorkloadKind : std::uint8_t {
  kGeneral,
  kScientific,
  kFlashCrowd,
  kShifting,
};

constexpr const char* workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kGeneral: return "general";
    case WorkloadKind::kScientific: return "scientific";
    case WorkloadKind::kFlashCrowd: return "flash_crowd";
    case WorkloadKind::kShifting: return "shifting";
  }
  return "?";
}

struct SimConfig {
  StrategyKind strategy = StrategyKind::kDynamicSubtree;
  int num_mds = 4;
  int num_clients = 120;
  std::uint64_t seed = 42;

  NamespaceParams fs;
  MdsParams mds;
  NetworkParams net;

  WorkloadKind workload = WorkloadKind::kGeneral;
  GeneralWorkloadParams general;
  ScientificWorkloadParams scientific;
  FlashCrowdParams flash;
  ShiftingWorkloadParams shifting;

  /// If > 0, overrides mds.cache_capacity: the cluster's total cache is
  /// this fraction of the file system's metadata item count, split evenly
  /// across nodes (figure 4's x-axis).
  double cache_fraction = 0.0;

  /// Ablation hook: force whole-directory I/O (embedded-inode prefetch)
  /// on (1) or off (0) regardless of strategy; -1 keeps the strategy's
  /// native behaviour.
  int force_whole_dir_io = -1;

  /// Client retry policy (src/client/retry_policy.h): request timeout
  /// (retry to a random node on silence), exponential-backoff base/cap
  /// (the k-th re-issue is jittered within [d/2, d), d = base << (k-1),
  /// capped — spreads the retry herd a dead node strands so recovery
  /// isn't met with a stampede), and the retry budget (off by default).
  ClientRetryParams client_retry;

  /// Hedged reads (src/client/hedge_policy.h): after an adaptive
  /// per-op-class ~p99 delay, read-only first attempts fire one backup
  /// request to a different node; first reply wins, the loser is
  /// discarded by req-id matching. Off by default (zero-cost-off).
  HedgeParams hedge;

  /// Parallel simulation (core/sharded_cluster.h). shards == 1 is the
  /// classic single-engine ClusterSim path, bit-for-bit unchanged; with
  /// shards > 1 the system is split into that many ClusterSim units, one
  /// per shard engine (num_mds, num_clients and fs.num_users divided
  /// among them), advancing in lookahead-bounded lockstep windows.
  /// `threads` sets the worker count inside windows — results are
  /// identical for every value, by construction.
  int shards = 1;
  int threads = 1;
  /// Probability that a cohort client's think-turn targets another shard
  /// (a stat against a remote tree, routed over the cross-shard fabric).
  double shard_remote_fraction = 0.05;
  /// Remote targets sampled per (shard, other-shard) pair at build time.
  int shard_catalog_size = 64;

  /// Per-request tracing / latency attribution (src/common/trace.h).
  /// Disabled by default: no trace records exist, every hook reduces to a
  /// null-pointer check, and simulation results are identical either way
  /// (tracing observes; it never schedules or draws randomness).
  struct TraceParams {
    bool enabled = false;
    /// How many slowest requests to keep for the structured dump.
    std::size_t slowest_n = 32;
  };
  TraceParams trace;

  /// Simulated run length; statistics reset at `warmup`.
  SimTime duration = 20 * kSecond;
  SimTime warmup = 4 * kSecond;
  /// Metrics sampling period (figures 5-7 use finer sampling).
  SimTime sample_period = kSecond;

  std::string label() const;
};

/// Figure 2/3 preset: "fixing MDS memory and scaling the entire system:
/// file system size, number of MDS servers, and client base."
SimConfig scaled_system_config(StrategyKind strategy, int num_mds,
                               std::uint64_t seed = 42);

/// Figure 4 preset: fixed cluster, cache capacity expressed as a fraction
/// of total file-system metadata (set after namespace generation by the
/// cluster builder via cache_fraction).
SimConfig cache_sweep_config(StrategyKind strategy, double cache_fraction,
                             std::uint64_t seed = 42);

/// Figures 5/6 preset: dynamic-vs-static subtree under a workload shift.
SimConfig shift_config(StrategyKind strategy, std::uint64_t seed = 42);

/// Figure 7 preset: flash crowd with/without traffic control.
SimConfig flash_crowd_config(bool traffic_control, std::uint64_t seed = 42);

}  // namespace mdsim
