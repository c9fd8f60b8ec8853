// Ablation C: traffic-control replication threshold.
//
// Paper section 5.4: "The response time from when the flash crowd begins
// until it is effectively distributed across the cluster is dependent on
// a number of factors, including the replication threshold ..." — this
// sweep quantifies that dependence.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation C — replication threshold vs crowd response",
         "paper: section 5.4 (Traffic Control)");

  CsvWriter csv(csv_path("abl_replication_threshold"));
  csv.header({"threshold", "time_to_distribute_ms", "mean_replies_per_s",
              "mean_latency_ms", "nodes_serving"});

  ConsoleTable table(
      {"threshold", "distribute_ms", "replies/s", "latency_ms", "nodes"});
  std::vector<Run<>> runs;
  for (double thr : {50.0, 150.0, 300.0, 600.0, 1500.0, 1e12}) {
    SimConfig cfg = flash_crowd_config(/*traffic_control=*/true);
    cfg.mds.replication_threshold = thr;
    if (args.quick) cfg.num_clients = 2000;
    runs.push_back({cfg, [thr](const SimConfig& cfg, Output<>& o) {
      ClusterSim cluster(cfg);
      cluster.run();
      Metrics& m = cluster.metrics();
      const SimTime t0 = cfg.flash.start;
      const SimTime t1 = t0 + cfg.flash.duration;

      // Time until >= half the nodes are replying at a meaningful rate.
      SimTime distributed_at = t1;
      const auto& series = m.per_mds_throughput();
      const std::size_t n_samples = series[0].points().size();
      for (std::size_t s = 0; s < n_samples; ++s) {
        const SimTime t = series[0].points()[s].time;
        if (t < t0) continue;
        int active = 0;
        for (const auto& node_series : series) {
          if (node_series.points()[s].value > 1000.0) ++active;
        }
        if (active * 2 >= cluster.num_mds()) {
          distributed_at = t;
          break;
        }
      }
      int serving = 0;
      for (int i = 0; i < cluster.num_mds(); ++i) {
        if (cluster.mds(i).stats().replies_sent > 50) ++serving;
      }
      const double distribute_ms =
          distributed_at > t0 ? to_seconds(distributed_at - t0) * 1e3 : 0.0;
      const double rate = m.reply_rate().mean_in(t0, t1);
      const double lat = m.client_latency().mean() * 1e3;
      const std::string label = thr >= 1e12 ? "inf" : fmt_double(thr, 0);
      o.rows.field(label).field(distribute_ms).field(rate).field(lat).field(
          std::int64_t{serving});
      o.rows.end_row();
      o.value = {label, fmt_double(distribute_ms, 0), fmt_double(rate, 0),
                 fmt_double(lat, 1), std::to_string(serving)};
      o.out << "  [thr=" << label << "] distributed in "
            << fmt_double(distribute_ms, 0) << " ms, " << serving
            << " nodes serving\n";
    }});
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Flash-crowd response vs replication threshold");
  std::cout << "\nExpected: low thresholds distribute the crowd almost "
               "immediately; high thresholds delay replication; an "
               "infinite threshold degenerates to the no-control case "
               "(one serving node).\nCSV: "
            << csv_path("abl_replication_threshold") << "\n";
  return 0;
}
