// Figure 5: "The range and average throughput of MDSs is shown under a
// dynamic workload. When clients migrate and create files in new portions
// of the hierarchy, a static subtree distribution remains unbalanced,
// while the dynamic partition re-balances load and achieves higher
// average performance by migrating newly popular portions of the
// hierarchy to non-busy nodes."
//
// Emits, per strategy, the min/avg/max per-MDS throughput time series.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

void run_strategy(const SimConfig& cfg, Output<>& o) {
  ClusterSim cluster(cfg);
  cluster.run();

  Metrics& m = cluster.metrics();
  const auto& avg = m.avg_throughput().points();
  const auto& mn = m.min_throughput().points();
  const auto& mx = m.max_throughput().points();
  for (std::size_t i = 0; i < avg.size(); ++i) {
    o.rows.field(strategy_name(cfg.strategy))
        .field(to_seconds(avg[i].time))
        .field(mn[i].value)
        .field(avg[i].value)
        .field(mx[i].value);
    o.rows.end_row();
  }

  const SimTime shift = cfg.shifting.shift_at;
  std::uint64_t migrations = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    migrations += cluster.mds(i).stats().migrations_out;
  }
  // Mean from 5 s after the shift to the end of the run.
  const auto after_shift = [&](const TimeSeries& series) {
    return fmt_double(series.mean_in(shift + 5 * kSecond, cfg.duration,
                                     /*include_end=*/true),
                      0);
  };
  o.out << "  [" << strategy_name(cfg.strategy) << "] avg tput before shift "
        << fmt_double(m.avg_throughput().mean_in(cfg.warmup, shift), 0)
        << " ops/s, after shift " << after_shift(m.avg_throughput())
        << " ops/s; min-node after shift " << after_shift(m.min_throughput())
        << ", max-node " << after_shift(m.max_throughput()) << "; migrations "
        << migrations << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Figure 5 — MDS throughput range under a workload shift",
         "paper: fig 5, section 5.3.2 (Dynamic Partitioning and Workload "
         "Evolution)");

  CsvWriter csv(csv_path("fig5_adaptation"));
  csv.header({"strategy", "time_s", "min_tput", "avg_tput", "max_tput"});
  std::vector<Run<>> runs;
  for (StrategyKind k :
       {StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree}) {
    runs.push_back({shift_run_config(k, args.quick), run_strategy});
  }
  run_all(args, std::move(runs), &csv);
  std::cout << "\nExpected shape: after the shift the static cluster pins "
               "one node at its service ceiling (max >> avg, min ~ idle) "
               "while the dynamic cluster re-delegates subtrees and "
               "recovers a higher average.\n";
  std::cout << "CSV: " << csv_path("fig5_adaptation") << "\n";
  return 0;
}
