// Ablation F: GPFS-style distributed attribute updates under a shared-
// write storm (paper section 4.2).
//
// The scientific N-to-1 burst becomes a *write* storm: every client
// repeatedly bumps the size/mtime of the same shared file (parallel
// writers appending to a common output). Without distributed updates,
// every setattr funnels through — and is serialized (journaled) at — the
// file's authority. With them, replica holders absorb writes locally and
// ship batched deltas.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

void run_mode(const SimConfig& cfg, Output<>& o) {
  ClusterSim cluster(cfg);
  cluster.run();
  Metrics& m = cluster.metrics();
  const double tput = m.avg_mds_throughput(cluster.sim().now());
  const Summary lat = m.client_latency();
  std::uint64_t local = 0, flushes = 0, callbacks = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    local += cluster.mds(i).stats().attr_local_updates;
    flushes += cluster.mds(i).stats().attr_flushes_applied;
    callbacks += cluster.mds(i).stats().attr_callbacks;
  }
  const char* mode =
      cfg.mds.distributed_attr_updates ? "distributed" : "authority_serialized";
  o.rows.field(mode)
      .field(tput)
      .field(lat.mean() * 1e3)
      .field(lat.max() * 1e3)
      .field(local)
      .field(flushes)
      .field(callbacks);
  o.rows.end_row();
  o.value = {mode, fmt_double(tput, 0), fmt_double(lat.mean() * 1e3, 2),
             fmt_double(lat.max() * 1e3, 1), std::to_string(local),
             std::to_string(flushes), std::to_string(callbacks)};
  o.out << "  [" << mode << "] " << fmt_double(tput, 0)
        << " ops/s/MDS, mean latency " << fmt_double(lat.mean() * 1e3, 2)
        << " ms, absorbed locally " << local << ", batched flushes "
        << flushes << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation F — distributed attribute updates (shared writers)",
         "paper: section 4.2 (the GPFS-style monotone-attribute scheme)");

  CsvWriter csv(csv_path("abl_distributed_attrs"));
  csv.header({"mode", "avg_mds_throughput_ops", "mean_latency_ms",
              "max_latency_ms", "local_updates", "flushes", "callbacks"});
  ConsoleTable table({"mode", "tput", "lat_ms", "max_ms", "local",
                      "flushes", "callbacks"});
  std::vector<Run<>> runs;
  for (bool distributed : {false, true}) {
    SimConfig cfg;
    cfg.strategy = StrategyKind::kDynamicSubtree;
    cfg.num_mds = args.quick ? 4 : 8;
    cfg.num_clients = args.quick ? 240 : 640;
    cfg.fs.num_users = 16;
    cfg.fs.nodes_per_user = 100;
    cfg.fs.num_projects = 1;
    cfg.fs.project_runs = 2;
    cfg.fs.project_dir_files = 200;
    cfg.workload = WorkloadKind::kScientific;
    cfg.scientific.compute_phase = kSecond;
    cfg.scientific.ops_per_burst = 40;
    cfg.scientific.n_to_1_fraction = 1.0;        // every burst shares a file
    cfg.scientific.n_to_1_write_fraction = 0.7;  // ... and mostly writes it
    cfg.mds.distributed_attr_updates = distributed;
    cfg.mds.replication_threshold = 200.0;  // the shared file replicates fast
    cfg.mds.popularity_half_life = kSecond;
    cfg.duration = 16 * kSecond;
    cfg.warmup = 3 * kSecond;
    runs.push_back({cfg, run_mode});
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Shared-write storm on one file");
  std::cout << "\nExpected: with distributed updates, most writes are "
               "absorbed at replicas and batched (latency drops, the "
               "authority stops being the serialization point).\nCSV: "
            << csv_path("abl_distributed_attrs") << "\n";
  return 0;
}
