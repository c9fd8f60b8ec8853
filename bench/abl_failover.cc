// Ablation E: MDS failover — journal-replay cache warming on takeover.
//
// Paper section 4.6: "the log represents an approximation of that node's
// working set, allowing the memory cache to be quickly preloaded with
// millions of records on startup or after a failure", and "[OSD-hosted]
// shared access facilitates takeover in the case of a node failure."
//
// One node is killed mid-run; survivors inherit its subtrees. With warm
// takeover, the heir replays the dead node's journal from shared storage;
// cold takeover pages the working set back in one miss at a time. We
// measure the throughput dip and the time to recover.
#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

/// What the closing comparison reads.
struct Outcome {
  double settled = 0.0;        // last 10 s of the run, per survivor
  double post_kill_hit = 0.0;  // cluster hit rate in the 6 s after the kill
};

void run_mode(const SimConfig& cfg, bool warm, Output<Outcome>& out) {
  const SimTime kill_at = 12 * kSecond;
  ClusterSim cluster(cfg);
  cluster.run_until(kill_at);

  // Snapshot cache counters at the kill instant for a windowed hit rate.
  std::uint64_t hits0 = 0, misses0 = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i == 1) continue;
    hits0 += cluster.mds(i).cache().stats().hits;
    misses0 += cluster.mds(i).cache().stats().misses;
  }
  cluster.fail_mds(1, warm);
  cluster.run_until(kill_at + 6 * kSecond);
  std::uint64_t hits1 = 0, misses1 = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i == 1) continue;
    hits1 += cluster.mds(i).cache().stats().hits;
    misses1 += cluster.mds(i).cache().stats().misses;
  }
  cluster.run_until(cfg.duration);

  Metrics& m = cluster.metrics();
  Outcome& o = out.value;
  // Per-survivor throughput (the dead node reports zero after the kill).
  const double scale =
      static_cast<double>(cfg.num_mds) / (cfg.num_mds - 1);
  const double before = m.avg_throughput().mean_in(cfg.warmup, kill_at);
  const double dip =  // first 4 s after the kill
      m.avg_throughput().mean_in(kill_at, kill_at + 4 * kSecond) * scale;
  o.settled = m.avg_throughput().mean_in(cfg.duration - 10 * kSecond,
                                         cfg.duration,
                                         /*include_end=*/true) *
              scale;
  const std::uint64_t dh = hits1 - hits0;
  const std::uint64_t dm = misses1 - misses0;
  o.post_kill_hit =
      dh + dm > 0 ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                  : 0.0;
  const char* mode = warm ? "warm_takeover" : "cold_takeover";
  for (const auto& p : m.avg_throughput().points()) {
    out.rows.field(mode).field(to_seconds(p.time)).field(p.value);
    out.rows.end_row();
  }
  out.out << "  [" << mode << "] per-node tput before "
          << fmt_double(before, 0) << " ops/s; dip (per survivor) "
          << fmt_double(dip, 0) << "; settled " << fmt_double(o.settled, 0)
          << "; survivor hit rate in the 6 s after the kill "
          << fmt_double(o.post_kill_hit, 4) << "; client retries "
          << cluster.cohort().totals().retries << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation E — failover: warm vs cold takeover",
         "paper: sections 2.1.2 and 4.6 (journal as working set, shared-"
         "storage takeover)");

  CsvWriter csv(csv_path("abl_failover"));
  csv.header({"mode", "time_s", "avg_tput"});
  std::vector<Run<Outcome>> runs;
  for (bool warm : {true, false}) {
    runs.push_back({failure_config(args.quick ? 4 : 8, args.quick ? 240 : 600,
                                   /*nodes_per_user=*/400),
                    [warm](const SimConfig& cfg, Output<Outcome>& o) {
                      run_mode(cfg, warm, o);
                    }});
  }
  const auto outputs = run_all(args, std::move(runs), &csv);
  const Outcome& warm = outputs[0].value;
  const Outcome& cold = outputs[1].value;
  std::cout << "\nExpected: both modes dip when the node dies (timeouts + "
               "inherited load); warm takeover keeps the survivors' hit "
               "rate up because the heirs start with the dead node's "
               "working set instead of paging it in by cache miss.\n";
  std::cout << "Observed: post-kill hit rate warm "
            << fmt_double(warm.post_kill_hit, 4) << " vs cold "
            << fmt_double(cold.post_kill_hit, 4) << "; settled tput warm "
            << fmt_double(warm.settled, 0) << " vs cold "
            << fmt_double(cold.settled, 0) << ".\n";
  std::cout << "CSV: " << csv_path("abl_failover") << "\n";
  return 0;
}
