// Figure 2: "MDS performance as file system, cluster size, and client
// base are scaled." Average per-MDS throughput (ops/sec) vs MDS cluster
// size for the five metadata partitioning strategies, with fixed per-node
// memory.
//
// Paper shape to reproduce: subtree partitioning (static & dynamic) on
// top, DirHash below them, LazyHybrid and FileHash far below; hashed
// strategies degrade faster with scale; LazyHybrid scales almost flat.
#include <cstdlib>

#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  banner("Figure 2 — per-MDS throughput vs cluster size",
         "paper: fig 2, section 5.3 (Performance and Scalability)");

  std::vector<int> sizes{2, 4, 8, 16, 32, 50};
  int shards = 1;
  int threads = 1;
  bool overload_noop = false;
  bool giga_off = false;
  bool gray_noop = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      sizes = {2, 4, 8};
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--overload-noop") {
      overload_noop = true;  // gate enabled, limits unreachable: must match
    } else if (arg == "--giga-off") {
      giga_off = true;  // all-at-once hashing: must match when nothing splits
    } else if (arg == "--gray-noop") {
      gray_noop = true;  // health+hedging armed but inert: must match
    }
  }
  // --shards=1 (the default) runs one shard, which repeats the single
  // engine event for event and reproduces the committed CSVs
  // byte-for-byte; higher shard counts split the system, and the output
  // is identical for every --threads.

  CsvWriter csv(csv_path("fig2_scaling"), /*echo_stdout=*/false);
  csv.header({"strategy", "num_mds", "avg_mds_throughput_ops",
              "hit_rate", "prefix_fraction", "forward_fraction",
              "mean_latency_ms", "replies", "failures"});

  ConsoleTable table({"mds", "Static", "Dynamic", "DirHash", "LazyHyb",
                      "FileHash"});
  for (int n : sizes) {
    std::vector<std::string> row{std::to_string(n)};
    for (StrategyKind k : all_strategies()) {
      SimConfig config = scaled_system_config(k, n);
      config.shards = shards;
      config.threads = threads;
      if (overload_noop) apply_overload_noop(&config);
      if (giga_off) apply_giga_off(&config);
      if (gray_noop) apply_gray_noop(&config);
      const RunResult r = run_one(config);
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
