// Ablation G: journal device technology (paper section 4.6).
//
// "All metadata transactions must be quickly written to stable storage for
// safety ... the primary demand will be on raw write bandwidth. ... The
// use of NVRAM in the metadata servers can further mask the latency of
// writes to the log."
//
// Every update op commits to the journal before replying, so the journal
// append time is a floor under update latency. We measure exactly that
// claim: an unsaturated create-heavy workload, sweeping the commit device
// from a 2004-era disk log to NVRAM. (Throughput under *saturation* is a
// different story — a slow log throttles create admission and can even
// protect the downstream object store; that regime shows up in the
// dirfrag and failover benches.)
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation G — journal device (disk log vs NVRAM)",
         "paper: section 4.6 (two-tiered storage, NVRAM remark)");

  struct Device {
    const char* name;
    SimTime append;
  };
  const Device devices[] = {
      {"disk_log_2ms", from_millis(2.0)},
      {"disk_log_400us", from_micros(400)},
      {"nvram_20us", from_micros(20)},
  };

  CsvWriter csv(csv_path("abl_nvram_journal"));
  csv.header({"device", "append_us", "avg_mds_throughput_ops",
              "mean_latency_ms", "update_latency_bound_ms"});

  ConsoleTable table({"device", "tput", "latency_ms"});
  std::vector<Run<>> runs;
  for (const Device& d : devices) {
    SimConfig cfg;
    cfg.strategy = StrategyKind::kDynamicSubtree;
    cfg.num_mds = args.quick ? 3 : 6;
    // Light load: nothing saturates, so reply latency directly exposes
    // the commit path.
    cfg.num_clients = 15 * cfg.num_mds;
    cfg.fs.num_users = 12 * cfg.num_mds;
    cfg.fs.nodes_per_user = 300;
    cfg.general.mean_think = from_millis(25);
    cfg.mds.disk.journal_append_time = d.append;
    cfg.duration = 8 * kSecond;
    cfg.warmup = 2 * kSecond;
    // Create-heavy so every op pays a journal commit before replying.
    cfg.workload = WorkloadKind::kShifting;
    cfg.shifting.shift_at = 0;
    cfg.shifting.fraction = 1.0;
    runs.push_back({cfg, [d](const SimConfig& cfg, Output<>& o) {
      const RunResult r = run_one(cfg);
      o.rows.field(d.name)
          .field(static_cast<double>(d.append) / 1e3)
          .field(r.avg_mds_throughput)
          .field(r.mean_latency_ms)
          .field(to_seconds(d.append) * 1e3);
      o.rows.end_row();
      o.value = {d.name, fmt_double(r.avg_mds_throughput, 0),
                 fmt_double(r.mean_latency_ms, 2)};
      o.out << "  [" << d.name << "] " << fmt_double(r.avg_mds_throughput, 0)
            << " ops/s/MDS, " << fmt_double(r.mean_latency_ms, 2)
            << " ms mean latency\n";
    }});
  }
  for (auto& o : run_all(args, std::move(runs), &csv)) table.add_row(o.value);
  table.print("Create-heavy workload vs journal device");
  std::cout << "\nExpected: mean latency falls with the commit device "
               "(every create waits for its journal append); NVRAM makes "
               "the commit effectively free, as the paper suggests.\nCSV: "
            << csv_path("abl_nvram_journal") << "\n";
  return 0;
}
