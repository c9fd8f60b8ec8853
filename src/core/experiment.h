// Sweep driver: run a batch of independent simulations (optionally on a
// thread pool — each ClusterSim is fully self-contained) and collect the
// aggregate numbers the paper's figures plot. Both engines summarize a run
// the same way: summarize() folds the Metrics of every cluster unit (one
// on the single engine, one per shard on the parallel engine) into one
// RunResult.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace mdsim {

struct RunResult {
  SimConfig config;
  double avg_mds_throughput = 0.0;  // ops/sec per MDS (fig 2)
  double hit_rate = 0.0;            // cluster cache hit rate (fig 4)
  double prefix_fraction = 0.0;     // prefix share of cache (fig 3)
  double forward_fraction = 0.0;    // forwarded / client requests
  double mean_latency_ms = 0.0;
  std::uint64_t replies = 0;
  std::uint64_t failures = 0;
};

/// The end-of-run summary of one or more cluster units' Metrics, read at
/// simulated time `now`. Integer counters add across units; the prefix
/// fraction averages over every node of every unit, in unit order.
RunResult summarize(const SimConfig& config,
                    const std::vector<const Metrics*>& units, SimTime now);

/// Run one configured simulation to completion and summarize it. With
/// config.shards > 1 the run uses the sharded parallel engine
/// (core/sharded_cluster.h); `inspect` hooks are single-cluster only.
/// `inspect`, if given, runs against the finished cluster (extra metrics).
RunResult run_one(const SimConfig& config,
                  const std::function<void(ClusterSim&)>& inspect = {});

/// Run a batch, at most `parallelism` at a time (1 = serial, 0 = hardware
/// concurrency). Results are returned in input order.
std::vector<RunResult> run_batch(const std::vector<SimConfig>& configs,
                                 unsigned parallelism = 0);

}  // namespace mdsim
