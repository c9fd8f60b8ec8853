#include "core/experiment.h"

#include <atomic>
#include <cassert>
#include <thread>

#include "core/sharded_cluster.h"

namespace mdsim {

RunResult summarize(const SimConfig& config,
                    const std::vector<const Metrics*>& units, SimTime now) {
  Metrics::Totals totals;
  std::size_t nodes = 0;
  double prefix_sum = 0.0;
  Summary latency;
  for (const Metrics* m : units) {
    totals += m->totals();
    nodes += m->nodes().size();
    for (const MdsNode* n : m->nodes()) {
      prefix_sum += n->cache().prefix_fraction();
    }
    latency.merge(m->client_latency());
  }
  // Every unit resets at the same warm-up instant.
  const SimTime since = units.empty() ? 0 : units.front()->reset_at();
  const double n = static_cast<double>(nodes);
  RunResult r;
  r.config = config;
  r.avg_mds_throughput =
      nodes > 0 && now > since
          ? static_cast<double>(totals.replies) / to_seconds(now - since) / n
          : 0.0;
  r.hit_rate = totals.hit_rate();
  r.prefix_fraction = nodes > 0 ? prefix_sum / n : 0.0;
  r.forward_fraction = totals.forward_fraction();
  r.mean_latency_ms = latency.mean() * 1e3;
  r.replies = totals.replies;
  r.failures = totals.failures;
  return r;
}

RunResult run_one(const SimConfig& config,
                  const std::function<void(ClusterSim&)>& inspect) {
  if (config.shards > 1) {
    // Parallel engine; `inspect` takes a ClusterSim and cannot apply.
    assert(!inspect && "inspect hooks are single-cluster only");
    ShardedClusterSim cluster(config);
    cluster.run();
    return cluster.result();
  }
  ClusterSim cluster(config);
  cluster.run();
  const RunResult r =
      summarize(config, {&cluster.metrics()}, cluster.sim().now());
  if (inspect) inspect(cluster);
  return r;
}

std::vector<RunResult> run_batch(const std::vector<SimConfig>& configs,
                                 unsigned parallelism) {
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  std::vector<RunResult> results(configs.size());
  if (parallelism == 1 || configs.size() == 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = run_one(configs[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= configs.size()) return;
      results[i] = run_one(configs[i]);
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::min<unsigned>(
      parallelism, static_cast<unsigned>(configs.size()));
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return results;
}

}  // namespace mdsim
