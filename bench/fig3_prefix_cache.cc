// Figure 3: "Percentage of cache devoted to prefix inodes as the file
// system, client base and MDS cluster size scales."
//
// Paper shape: hashed distributions devote large portions of their caches
// to replicated prefix directories and the overhead *grows* with cluster
// size; subtree partitions stay near the namespace's natural dir/file
// ratio, with the dynamic variant slightly above the static one (its
// re-delegated subtrees need anchoring prefixes).
#include "bench_util.h"
#include "core/sharded_cluster.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  banner("Figure 3 — prefix-inode share of MDS cache vs cluster size",
         "paper: fig 3, section 5.3.1 (Prefix Caching)");

  std::vector<int> sizes{2, 4, 8, 16, 24, 32};
  if (argc > 1 && std::string(argv[1]) == "--quick") sizes = {2, 4, 8};

  // Figure 3 omits LazyHybrid (it keeps no prefixes; see the cluster
  // tests), so the sweep covers the four traversal-based strategies.
  const std::vector<StrategyKind> strategies = {
      StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree,
      StrategyKind::kDirHash, StrategyKind::kFileHash};

  CsvWriter csv(csv_path("fig3_prefix_cache"));
  csv.header({"strategy", "num_mds", "prefix_fraction_pct", "hit_rate",
              "replicas_mean"});

  ConsoleTable table({"mds", "Dynamic", "Static", "DirHash", "FileHash"});
  for (int n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    for (StrategyKind k : strategies) {
      double replica_mean = 0.0;
      const RunResult r =
          run_one(scaled_system_config(k, n), [&](ShardedClusterSim& run) {
            for (int s = 0; s < run.num_shards(); ++s) {
              ClusterSim& cluster = run.shard(s);
              for (int i = 0; i < cluster.num_mds(); ++i) {
                replica_mean += static_cast<double>(
                    cluster.mds(i).cache().replica_count());
              }
            }
            replica_mean /= run.total_mds();
          });
      csv.field(strategy_name(k))
          .field(std::int64_t{n})
          .field(r.prefix_fraction * 100.0)
          .field(r.hit_rate)
          .field(replica_mean);
      csv.end_row();
      row.push_back(fmt_double(r.prefix_fraction * 100.0, 1));
      std::cout << "  [" << strategy_name(k) << " x" << n << "] prefixes "
                << fmt_double(r.prefix_fraction * 100.0, 1)
                << "% of cache, mean replicas/node "
                << fmt_double(replica_mean, 0) << "\n";
    }
    table.add_row(row);
  }
  table.print("Cache consumed by prefix inodes (%) vs cluster size");
  std::cout << "\nCSV: " << csv_path("fig3_prefix_cache") << "\n";
  return 0;
}
