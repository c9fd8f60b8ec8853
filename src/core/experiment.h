// Sweep driver: run a batch of independent simulations on a thread pool
// (each run is fully self-contained) and collect the aggregate numbers the
// paper's figures plot. Both engines summarize a run the same way:
// summarize() folds the Metrics of every cluster unit (one on the single
// engine, one per shard on the parallel engine) into one RunResult.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/cluster.h"

namespace mdsim {

class ShardedClusterSim;

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

/// Run one configured simulation to completion and summarize it, on a
/// ShardedClusterSim of config.shards units (core/sharded_cluster.h; one
/// shard is the single engine, event for event). `inspect`, if given,
/// runs against the finished run (extra metrics: loop over shard(s)).
RunResult run_one(const SimConfig& config,
                  const std::function<void(ShardedClusterSim&)>& inspect = {});

/// The one ordered parallel map: run job(i) for every i in [0, n), at most
/// `parallelism` at a time, and return the results in index order. The
/// calling thread is one of the workers, so at parallelism 0 or 1 the loop
/// runs on it alone. Each job must own everything it touches. A job must
/// not throw (no simulation code does): an exception ends the process.
template <typename Job>
auto run_batch(std::size_t n, unsigned parallelism, const Job& job)
    -> std::vector<decltype(job(std::size_t{}))> {
  std::vector<decltype(job(std::size_t{}))> results(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() noexcept {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) results[i] = job(i);
  };
  {
    std::vector<std::jthread> pool;  // joined when the scope ends
    const std::size_t workers = std::min<std::size_t>(parallelism, n);
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
    worker();
  }
  return results;
}

}  // namespace mdsim
