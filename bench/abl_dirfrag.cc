// Ablation D: dynamic directory fragmentation under a checkpoint storm.
//
// Paper section 4.3: "if a single directory becomes extraordinarily large
// or busy ... an individual directory's contents can be hashed across the
// cluster." The scientific N-to-N burst (every client creates its own
// file in the same run directory) is exactly the motivating workload.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation D — dynamic directory fragmentation",
         "paper: section 4.3 (hash/unhash of hot directories)");

  CsvWriter csv(csv_path("abl_dirfrag"));
  csv.header({"dirfrag", "avg_mds_throughput_ops", "mean_latency_ms",
              "failures", "fragment_events", "merge_events"});

  ConsoleTable table({"dirfrag", "tput", "latency_ms", "frag/merge"});
  std::vector<Run<>> runs;
  for (bool enabled : {false, true}) {
    SimConfig cfg = storm_config(args.quick);
    cfg.mds.dirfrag_enabled = enabled;
    cfg.duration = 20 * kSecond;
    cfg.warmup = 4 * kSecond;
    runs.push_back({cfg, [enabled](const SimConfig& cfg, Output<>& o) {
      ClusterSim cluster(cfg);
      cluster.run();
      Metrics& m = cluster.metrics();
      const double tput = m.avg_mds_throughput(cluster.sim().now());
      const double lat = m.client_latency().mean() * 1e3;
      o.rows.field(std::int64_t{enabled ? 1 : 0})
          .field(tput)
          .field(lat)
          .field(m.total_failures())
          .field(cluster.dirfrag().fragment_events)
          .field(cluster.dirfrag().merge_events);
      o.rows.end_row();
      o.value = {enabled ? "on" : "off", fmt_double(tput, 0),
                 fmt_double(lat, 1),
                 std::to_string(cluster.dirfrag().fragment_events) + "/" +
                     std::to_string(cluster.dirfrag().merge_events)};
      o.out << "  [dirfrag " << (enabled ? "on" : "off") << "] "
            << fmt_double(tput, 0) << " ops/s/MDS, latency "
            << fmt_double(lat, 1) << " ms, frag events "
            << cluster.dirfrag().fragment_events << "\n";
    }});
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Checkpoint storm with/without directory fragmentation");
  std::cout << "\nExpected: fragmentation spreads the create hot-spot "
               "across the cluster (higher throughput, lower latency). No "
               "run merges the directory back (merge_events is 0).\nCSV: "
            << csv_path("abl_dirfrag") << "\n";
  return 0;
}
