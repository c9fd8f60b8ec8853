// Figure 2: "MDS performance as file system, cluster size, and client
// base are scaled." Average per-MDS throughput (ops/sec) vs MDS cluster
// size for the five metadata partitioning strategies, with fixed per-node
// memory.
//
// Paper shape to reproduce: subtree partitioning (static & dynamic) on
// top, DirHash below them, LazyHybrid and FileHash far below; hashed
// strategies degrade faster with scale; LazyHybrid scales almost flat.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  // One shard (the default) repeats the single engine event for event;
  // more split the system, with the same output at every --threads.
  const BenchArgs args = parse_args(argc, argv, kLayerFlags | kShardFlags);
  banner("Figure 2 — per-MDS throughput vs cluster size",
         "paper: fig 2, section 5.3 (Performance and Scalability)");

  std::vector<int> sizes{2, 4, 8, 16, 32, 50};
  if (args.quick) sizes = {2, 4, 8};
  std::vector<Run<RunResult>> runs;
  for (int n : sizes) {
    for (StrategyKind k : kAllStrategies) {
      runs.push_back({scaled_system_config(k, n), summary_job});
    }
  }
  const auto outputs = run_all(args, std::move(runs), nullptr);

  CsvWriter csv(csv_path("fig2_scaling"));
  csv.header({"strategy", "num_mds", "avg_mds_throughput_ops",
              "hit_rate", "prefix_fraction", "forward_fraction",
              "mean_latency_ms", "replies", "failures"});

  ConsoleTable table({"mds", "Static", "Dynamic", "DirHash", "LazyHyb",
                      "FileHash"});
  auto o = outputs.begin();
  for (int n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    for (StrategyKind k : kAllStrategies) {
      const RunResult& r = (o++)->value;
      csv.field(strategy_name(k))
          .field(std::int64_t{n})
          .field(r.avg_mds_throughput)
          .field(r.hit_rate)
          .field(r.prefix_fraction)
          .field(r.forward_fraction)
          .field(r.mean_latency_ms)
          .field(r.replies)
          .field(r.failures);
      csv.end_row();
      row.push_back(fmt_double(r.avg_mds_throughput, 0));
      std::cout << "  [" << strategy_name(k) << " x" << n << "] "
                << fmt_double(r.avg_mds_throughput, 0) << " ops/s/MDS, hit "
                << fmt_double(r.hit_rate * 100, 1) << "%, latency "
                << fmt_double(r.mean_latency_ms, 1) << " ms\n";
    }
    table.add_row(row);
  }
  table.print("Average MDS throughput (ops/sec) vs cluster size");
  std::cout << "\nCSV: " << csv_path("fig2_scaling") << "\n";
  return 0;
}
