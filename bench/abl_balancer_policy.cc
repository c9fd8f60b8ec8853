// Ablation B: load-metric policy for the balancer.
//
// Paper section 4.3/5.1: the prototype balances on "a weighted
// combination of node throughput and cache misses" and the authors note
// both that this is primitive and that perfectly balanced load is not
// necessarily ideal (section 5.3.2). This ablation sweeps the weighting
// (throughput-only, miss-only, the default mix, and balancing disabled)
// under the figure-5 workload shift.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation B — balancer load-metric policy",
         "paper: sections 4.3, 5.1, 5.3.2");

  struct Policy {
    const char* name;
    double w_tp;
    double w_miss;
    bool enabled;
    MdsParams::BalancerMetric metric;
  };
  const Policy policies[] = {
      {"disabled", 0.0, 0.0, false, MdsParams::BalancerMetric::kWeightedLoad},
      {"throughput_only", 1.0, 0.0, true,
       MdsParams::BalancerMetric::kWeightedLoad},
      {"miss_only", 0.0, 3.0, true, MdsParams::BalancerMetric::kWeightedLoad},
      {"mixed_default", 1.0, 3.0, true,
       MdsParams::BalancerMetric::kWeightedLoad},
      {"utilization_vector", 0.0, 0.0, true,
       MdsParams::BalancerMetric::kUtilizationVector},
  };

  CsvWriter csv(csv_path("abl_balancer_policy"));
  csv.header({"policy", "avg_tput_after_shift", "min_tput_after_shift",
              "max_tput_after_shift", "migrations"});

  ConsoleTable table({"policy", "avg", "min", "max", "migr"});
  std::vector<Run<>> runs;
  for (const Policy& p : policies) {
    SimConfig cfg = shift_run_config(StrategyKind::kDynamicSubtree, args.quick);
    cfg.mds.load_weight_throughput = p.w_tp;
    cfg.mds.load_weight_miss = p.w_miss;
    cfg.mds.balancer_metric = p.metric;
    if (!p.enabled) {
      // Effectively never trigger.
      cfg.mds.balance_trigger = 1e18;
    }
    runs.push_back({cfg, [name = p.name](const SimConfig& cfg, Output<>& o) {
      ClusterSim cluster(cfg);
      cluster.run();
      Metrics& m = cluster.metrics();
      const SimTime t0 = cfg.shifting.shift_at + 5 * kSecond;
      const SimTime t1 = cfg.duration;
      std::uint64_t migrations = 0;
      for (int i = 0; i < cluster.num_mds(); ++i) {
        migrations += cluster.mds(i).stats().migrations_out;
      }
      const auto mean = [&](const TimeSeries& series) {
        return series.mean_in(t0, t1, /*include_end=*/true);
      };
      const double avg = mean(m.avg_throughput());
      const double mn = mean(m.min_throughput());
      const double mx = mean(m.max_throughput());
      o.rows.field(name).field(avg).field(mn).field(mx).field(migrations);
      o.rows.end_row();
      o.value = {name, fmt_double(avg, 0), fmt_double(mn, 0),
                 fmt_double(mx, 0), std::to_string(migrations)};
      o.out << "  [" << name << "] avg " << fmt_double(avg, 0)
            << " ops/s after shift, " << migrations << " migrations\n";
    }});
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Post-shift per-MDS throughput by balancer policy");
  std::cout << "\nExpected: any balancing beats none under the shift; the "
               "policies differ in how much spread (min..max) they leave — "
               "the paper's point that 'fair' is not automatically "
               "optimal.\nCSV: "
            << csv_path("abl_balancer_policy") << "\n";
  return 0;
}
