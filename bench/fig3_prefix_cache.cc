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
  const BenchArgs args = parse_args(argc, argv);
  banner("Figure 3 — prefix-inode share of MDS cache vs cluster size",
         "paper: fig 3, section 5.3.1 (Prefix Caching)");

  std::vector<int> sizes{2, 4, 8, 16, 24, 32};
  if (args.quick) sizes = {2, 4, 8};

  // Figure 3 omits LazyHybrid (it keeps no prefixes; see the cluster
  // tests), so the sweep covers the four traversal-based strategies.
  const std::vector<StrategyKind> strategies = {
      StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree,
      StrategyKind::kDirHash, StrategyKind::kFileHash};

  CsvWriter csv(csv_path("fig3_prefix_cache"));
  csv.header({"strategy", "num_mds", "prefix_fraction_pct", "hit_rate",
              "replicas_mean"});

  std::vector<Run<>> runs;
  for (int n : sizes) {
    for (StrategyKind k : strategies) {
      runs.push_back({scaled_system_config(k, n), [k, n](const SimConfig& c,
                                                          Output<>& o) {
        double replica_mean = 0.0;
        const RunResult r = run_one(c, [&](ShardedClusterSim& run) {
          for (int s = 0; s < run.num_shards(); ++s) {
            ClusterSim& cluster = run.shard(s);
            for (int i = 0; i < cluster.num_mds(); ++i) {
              replica_mean += static_cast<double>(
                  cluster.mds(i).cache().replica_count());
            }
          }
          replica_mean /= run.total_mds();
        });
        o.rows.field(strategy_name(k))
            .field(std::int64_t{n})
            .field(r.prefix_fraction * 100.0)
            .field(r.hit_rate)
            .field(replica_mean);
        o.rows.end_row();
        o.value = {fmt_double(r.prefix_fraction * 100.0, 1)};
        o.out << "  [" << strategy_name(k) << " x" << n << "] prefixes "
              << fmt_double(r.prefix_fraction * 100.0, 1)
              << "% of cache, mean replicas/node "
              << fmt_double(replica_mean, 0) << "\n";
      }});
    }
  }
  const auto outputs = run_all(args, std::move(runs), &csv);

  ConsoleTable table({"mds", "Dynamic", "Static", "DirHash", "FileHash"});
  auto o = outputs.begin();
  for (int n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    for (std::size_t k = 0; k < strategies.size(); ++k) {
      row.push_back((o++)->value.front());
    }
    table.add_row(row);
  }
  table.print("Cache consumed by prefix inodes (%) vs cluster size");
  std::cout << "\nCSV: " << csv_path("fig3_prefix_cache") << "\n";
  return 0;
}
