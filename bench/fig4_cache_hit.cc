// Figure 4: "Cache hit rate as a function of cache size (as a fraction of
// total file system size). For smaller caches, inefficient cache
// utilization due to replicated prefixes results in lower hit rates."
//
// Paper shape: subtree strategies lead at every cache size; the gap is
// widest for small caches and all strategies converge as the cache
// approaches the metadata size.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kLayerFlags);
  banner("Figure 4 — cache hit rate vs cache size fraction",
         "paper: fig 4, section 5.3.1 (Prefix Caching)");

  std::vector<double> fractions{0.05, 0.10, 0.20, 0.35, 0.60};
  if (args.quick) fractions = {0.05, 0.20, 0.60};
  std::vector<Run<RunResult>> runs;
  for (double frac : fractions) {
    for (StrategyKind k : kAllStrategies) {
      runs.push_back({cache_sweep_config(k, frac), summary_job});
    }
  }
  const auto outputs = run_all(args, std::move(runs), nullptr);

  CsvWriter csv(csv_path("fig4_cache_hit"));
  csv.header({"strategy", "cache_fraction", "hit_rate",
              "avg_mds_throughput_ops", "mean_latency_ms"});

  ConsoleTable table({"fraction", "Static", "Dynamic", "DirHash", "LazyHyb",
                      "FileHash"});
  auto o = outputs.begin();
  for (double frac : fractions) {
    std::vector<std::string> row{fmt_double(frac, 2)};
    for (StrategyKind k : kAllStrategies) {
      const RunResult& r = (o++)->value;
      csv.field(strategy_name(k))
          .field(frac)
          .field(r.hit_rate)
          .field(r.avg_mds_throughput)
          .field(r.mean_latency_ms);
      csv.end_row();
      row.push_back(fmt_double(r.hit_rate, 3));
      std::cout << "  [" << strategy_name(k) << " @" << fmt_double(frac, 2)
                << "] hit " << fmt_double(r.hit_rate, 4) << ", tput "
                << fmt_double(r.avg_mds_throughput, 0) << "\n";
    }
    table.add_row(row);
  }
  table.print("Cache hit rate vs cache size (fraction of total metadata)");
  std::cout << "\nCSV: " << csv_path("fig4_cache_hit") << "\n";
  return 0;
}
