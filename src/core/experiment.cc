#include "core/experiment.h"

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
                  const std::function<void(ShardedClusterSim&)>& inspect) {
  ShardedClusterSim cluster(config);
  cluster.run();
  if (inspect) inspect(cluster);
  return cluster.result();
}

}  // namespace mdsim
