// Rebalance tour: watch dynamic subtree partitioning absorb a workload
// shift (the figure 5 scenario), narrated step by step.
//
// Half the clients move their activity into directories initially served
// by a single MDS and start creating files there. We sample the cluster
// every few seconds and print who owns what and who is doing the work.
//
//   ./build/examples/rebalance_tour
#include <iostream>

#include "common/csv.h"
#include "common/table.h"
#include "core/cluster.h"

using namespace mdsim;

namespace {

void snapshot(ClusterSim& cluster, const char* label) {
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  std::cout << "\n--- " << label << " (t = "
            << fmt_double(to_seconds(cluster.sim().now()), 0) << "s) ---\n";
  ConsoleTable table(
      {"mds", "load", "delegations", "imported", "cache", "migr in/out"});
  for (int i = 0; i < cluster.num_mds(); ++i) {
    MdsNode& node = cluster.mds(i);
    table.add_row({std::to_string(i), fmt_double(node.current_load(), 0),
                   std::to_string(subtree->delegations_of(i).size()),
                   std::to_string(node.imported_subtrees().size()),
                   std::to_string(node.cache().size()),
                   std::to_string(node.stats().migrations_in) + "/" +
                       std::to_string(node.stats().migrations_out)});
  }
  table.print();
}

}  // namespace

int main() {
  SimConfig cfg = shift_config(StrategyKind::kDynamicSubtree);
  cfg.num_mds = 6;
  cfg.fs.num_users = 144;
  cfg.num_clients = 360;
  cfg.shifting.shift_at = 10 * kSecond;
  cfg.duration = 40 * kSecond;

  std::cout << "Dynamic subtree rebalancing demo: " << cfg.num_clients
            << " clients on " << cfg.num_mds << " MDS nodes.\n"
            << "At t=" << to_seconds(cfg.shifting.shift_at)
            << "s, half the clients move into MDS " << kHotMds
            << "'s territory and start creating files (paper fig. 5).\n";

  ClusterSim cluster(cfg);
  cluster.run_until(cfg.shifting.shift_at - kSecond);
  snapshot(cluster, "steady state, before the shift");

  cluster.run_until(cfg.shifting.shift_at + 3 * kSecond);
  snapshot(cluster, "shift just happened: one node is hot");

  cluster.run_until(cfg.shifting.shift_at + 15 * kSecond);
  snapshot(cluster, "balancer has been re-delegating subtrees");

  cluster.run_until(cfg.duration);
  snapshot(cluster, "end of run");

  Metrics& m = cluster.metrics();
  const SimTime shift = cfg.shifting.shift_at;
  std::cout << "\nAverage per-MDS throughput: before shift "
            << fmt_double(m.avg_throughput().mean_in(cfg.warmup, shift), 0)
            << " ops/s, turbulence window "
            << fmt_double(
                   m.avg_throughput().mean_in(shift, shift + 8 * kSecond), 0)
            << ", after adaptation "
            << fmt_double(m.avg_throughput().mean_in(shift + 15 * kSecond,
                                                     cfg.duration,
                                                     /*include_end=*/true),
                          0)
            << " ops/s\n"
            << "Compare with StaticSubtree via bench/fig5_adaptation.\n";
  return 0;
}
