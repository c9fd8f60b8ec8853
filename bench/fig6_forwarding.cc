// Figure 6: "Forwarded requests for static and dynamic partitioning under
// a dynamic workload. The spike represents a shift in workload, while the
// difference after that point highlights overhead due to client ignorance
// of metadata movement from dynamic load balancing."
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

void run_strategy(const SimConfig& cfg, Output<>& o) {
  ClusterSim cluster(cfg);
  const char* name = strategy_name(cfg.strategy);
  cluster.run();

  Metrics& m = cluster.metrics();
  for (const auto& p : m.forward_fraction().points()) {
    o.rows.field(name).field(to_seconds(p.time)).field(p.value);
    o.rows.end_row();
  }
  const SimTime shift = cfg.shifting.shift_at;
  o.out << "  [" << name << "] forwarded fraction: before "
        << fmt_double(m.forward_fraction().mean_in(cfg.warmup, shift), 3)
        << ", spike window "
        << fmt_double(m.forward_fraction().mean_in(shift, shift + 5 * kSecond),
                      3)
        << ", settled "
        << fmt_double(m.forward_fraction().mean_in(shift + 15 * kSecond,
                                                   cfg.duration,
                                                   /*include_end=*/true),
                      3)
        << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kLayerFlags);
  banner("Figure 6 — forwarded-request fraction under a workload shift",
         "paper: fig 6, section 5.3.3 (Client Ignorance)");

  CsvWriter csv(csv_path("fig6_forwarding"));
  csv.header({"strategy", "time_s", "forward_fraction"});
  std::vector<Run<>> runs;
  for (StrategyKind k :
       {StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree}) {
    runs.push_back({shift_run_config(k, args.quick), run_strategy});
  }
  run_all(args, std::move(runs), &csv);
  std::cout << "\nExpected shape: both spike when clients move into "
               "unexplored territory; the static fraction decays back to "
               "its discovery baseline, while the dynamic one stays higher "
               "because load balancing keeps moving metadata under the "
               "clients.\n";
  std::cout << "CSV: " << csv_path("fig6_forwarding") << "\n";
  return 0;
}
