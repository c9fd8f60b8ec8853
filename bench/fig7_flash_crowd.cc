// Figure 7: flash crowd. "Number of requests processed over time by
// individual nodes in the MDS cluster when 10,000 clients simultaneously
// request the same file."
//
//   Top (no traffic control): "nodes forward all requests to the
//   authoritative MDS who slowly responds to them in sequence."
//   Bottom (traffic control): "the authoritative node quickly replicates
//   the popular item and all nodes respond to requests."
//
// Emits cluster-wide replies/sec and forwards/sec series at 10 ms
// resolution around the crowd.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

void run_mode(const SimConfig& cfg, Output<>& o) {
  ClusterSim cluster(cfg);
  cluster.run();

  Metrics& m = cluster.metrics();
  const char* mode =
      cfg.mds.traffic_control_enabled ? "traffic_control" : "no_control";
  const auto& replies = m.reply_rate().points();
  const auto& forwards = m.forward_rate().points();
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].time < cfg.flash.start - 100 * kMillisecond) continue;
    o.rows.field(mode)
        .field(to_seconds(replies[i].time))
        .field(replies[i].value)
        .field(forwards[i].value);
    o.rows.end_row();
  }

  const SimTime t0 = cfg.flash.start;
  const SimTime t1 = t0 + cfg.flash.duration;
  // How many nodes actually served the crowd?
  int serving_nodes = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (cluster.mds(i).stats().replies_sent > 50) ++serving_nodes;
  }
  o.out << "  [" << mode << "] peak replies/s "
        << fmt_double(m.reply_rate().max_value(), 0) << ", peak forwards/s "
        << fmt_double(m.forward_rate().max_value(), 0)
        << ", mean replies/s in crowd "
        << fmt_double(m.reply_rate().mean_in(t0, t1), 0) << ", nodes serving "
        << serving_nodes << "/" << cluster.num_mds()
        << ", client latency mean "
        << fmt_double(m.client_latency().mean() * 1e3, 1) << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Figure 7 — flash crowd with and without traffic control",
         "paper: fig 7, section 5.4 (Traffic Control)");

  CsvWriter csv(csv_path("fig7_flash_crowd"));
  csv.header({"mode", "time_s", "replies_per_s", "forwards_per_s"});
  std::vector<Run<>> runs;
  for (bool traffic_control : {false, true}) {
    SimConfig cfg = flash_crowd_config(traffic_control);
    if (args.quick) cfg.num_clients = 2000;
    runs.push_back({cfg, run_mode});
  }
  run_all(args, std::move(runs), &csv);
  std::cout << "\nExpected shape: without control the authority serializes "
               "the crowd (forwards dwarf replies, one node serving); with "
               "control the metadata replicates within milliseconds and "
               "every node answers (replies dominate).\n";
  std::cout << "CSV: " << csv_path("fig7_flash_crowd") << "\n";
  return 0;
}
