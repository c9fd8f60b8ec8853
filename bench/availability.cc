// Availability experiment: the full failure lifecycle, measured.
//
// Two scenarios share the harness:
//
//   (default)              A scripted FaultPlan crashes one MDS mid-run
//                          and restarts it later. Survivors detect the
//                          death from missed heartbeats (no oracle), wait
//                          out the quorum-takeover grace, take over its
//                          delegations and warm their caches from its
//                          journal; the restarted node replays its log
//                          through the disk model and rejoins.
//
//   --scenario=partition   The fabric splits: one MDS lands alone on the
//                          minority side while the majority (and all
//                          clients) stay connected. The minority node's
//                          authority lease lapses and it self-fences
//                          (parking writes, serving nothing it cannot
//                          prove it still owns); the majority quorum
//                          takes over its territory under a bumped epoch.
//                          On heal the fenced node rejoins, reconciles
//                          against the new epoch and resumes.
//
// We report the paper-relevant spans — detection latency, the
// unavailability window, recovery time, minority write-stall — alongside
// the throughput timeline that shows the dip and the climb back.
#include "bench_util.h"
#include "core/fault_plan.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

void print_summary(std::ostream& out, const char* label, const Summary& s) {
  out << "  " << label << ": ";
  if (s.count() == 0) {
    out << "(no samples)\n";
    return;
  }
  out << fmt_double(s.mean(), 3) << " s (n=" << s.count() << ")\n";
}

/// The run's throughput timeline, as the scenario's CSV rows.
void write_timeline(ClusterSim& cluster, Output<>& o) {
  for (const auto& p : cluster.metrics().avg_throughput().points()) {
    o.rows.field(to_seconds(p.time)).field(p.value);
    o.rows.end_row();
  }
}

void run_crash(const SimConfig& cfg, Output<>& o) {
  const SimTime crash_at = 10 * kSecond;
  // The restart must land after the grace-delayed takeover
  // (detection ~3.5 s + takeover grace 4 s after the crash); a node that
  // returns while its takeover is pending simply cancels it.
  const SimTime restart_at = 22 * kSecond;
  const MdsId victim = 1;

  ClusterSim cluster(cfg);
  cluster.run_until(0);
  FaultPlan plan;
  plan.crash(crash_at, victim, /*warm=*/true).restart(restart_at, victim);
  plan.arm(cluster);
  cluster.run_until(cfg.duration);

  Metrics& m = cluster.metrics();

  const ClientStats clients = cluster.cohort().totals();
  std::uint64_t detections = 0, takeovers = 0, warm_items = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MdsStats& s = cluster.mds(i).stats();
    detections += s.peer_down_detections;
    takeovers += s.takeovers;
    warm_items += s.takeover_warm_items;
  }

  const double before = m.avg_throughput().mean_in(cfg.warmup, crash_at);
  const double dip =
      m.avg_throughput().mean_in(crash_at, crash_at + 8 * kSecond);
  const double recovered =
      m.avg_throughput().mean_in(restart_at + 5 * kSecond, cfg.duration,
                                 /*include_end=*/true);

  const SimTime now = cluster.sim().now();
  std::ostream& out = o.out;
  out << "Lifecycle spans (FaultLog):\n";
  print_summary(out, "detection latency (crash -> first survivor detection)",
                cluster.fault_log().detection_latency_seconds(now));
  print_summary(out, "unavailability (crash -> delegations taken over)",
                cluster.fault_log().unavailability_seconds(now));
  print_summary(out, "recovery time (restart -> journal replayed, rejoined)",
                cluster.fault_log().recovery_time_seconds(now));
  out << "Counters: detections " << detections << "; takeovers "
      << takeovers << "; warm-replayed items " << warm_items
      << "; client retries " << clients.retries << "; stale replies "
      << clients.stale_replies << "; ops abandoned " << clients.ops_failed
      << "\n";
  out << "Throughput: healthy " << fmt_double(before, 0)
      << " ops/s; crash window " << fmt_double(dip, 0)
      << "; after rejoin " << fmt_double(recovered, 0) << "\n";
  out << "Expected: a dip bounded by the heartbeat-miss horizon plus "
         "the quorum-takeover grace, then recovery to the pre-crash "
         "level once the restarted node replays its journal and "
         "reacquires load.\n";
  write_timeline(cluster, o);
}

void run_partition(const SimConfig& cfg, Output<>& o) {
  const SimTime cut_at = 10 * kSecond;
  const SimTime heal_at = 22 * kSecond;
  const MdsId minority = 1;

  ClusterSim cluster(cfg);
  cluster.run_until(0);
  FaultPlan plan;
  // MDS addresses are 0..num_mds-1; endpoints not listed (every client)
  // stay in group 0 with the majority, so the minority node is alone.
  plan.partition(cut_at, heal_at, {{0, 2, 3}, {minority}});
  plan.arm(cluster);
  cluster.run_until(cfg.duration);

  Metrics& m = cluster.metrics();

  const ClientStats clients = cluster.cohort().totals();
  std::uint64_t parked = 0, stale_rejects = 0;
  std::uint64_t deferred = 0, takeovers = 0, reconciled = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MdsStats& s = cluster.mds(i).stats();
    parked += s.writes_parked_fenced;
    stale_rejects += s.stale_epoch_rejects;
    deferred += s.takeovers_deferred;
    takeovers += s.takeovers;
    reconciled += s.reconcile_dropped_items;
  }
  const auto* subtree =
      dynamic_cast<const SubtreePartition*>(&cluster.partition());

  const double before = m.avg_throughput().mean_in(cfg.warmup, cut_at);
  const double split = m.avg_throughput().mean_in(cut_at, heal_at);
  const double healed = m.avg_throughput().mean_in(
      heal_at + 3 * kSecond, cfg.duration, /*include_end=*/true);

  const SimTime now = cluster.sim().now();
  std::ostream& out = o.out;
  const std::vector<Episode> fences =
      cluster.fault_log().episodes(Episode::Kind::kFence);
  std::uint64_t unfences = 0;
  out << "Lifecycle spans (FaultLog):\n";
  for (const Episode& f : fences) {
    if (!f.open()) ++unfences;
    out << "  mds " << f.node << " fenced at "
        << fmt_double(to_seconds(f.begin), 3) << " s ("
        << fmt_double(to_seconds(f.begin) - to_seconds(cut_at), 3)
        << " s after the cut), unfenced at "
        << fmt_double(to_seconds(f.end), 3) << " s\n";
  }
  out << "  minority write stall (fenced node-seconds): "
      << fmt_double(cluster.fault_log().episode_seconds(Episode::Kind::kFence,
                                                        now),
                    3)
      << " s\n";
  out << "Counters: fences " << fences.size() << "; unfences " << unfences
      << "; writes parked while fenced " << parked
      << "; stale-epoch rejects " << stale_rejects
      << "; takeovers deferred (no quorum) " << deferred
      << "; takeovers executed " << takeovers
      << "; reconcile-dropped items " << reconciled
      << "; partition-dropped messages "
      << cluster.network().partition_dropped() << "; client retries "
      << clients.retries << "; stale replies " << clients.stale_replies
      << "; ops abandoned " << clients.ops_failed << "\n";
  if (subtree != nullptr) {
    out << "Map epoch at end: " << subtree->epoch()
        << " (1 = never reconfigured)\n";
  }
  out << "Throughput: healthy " << fmt_double(before, 0)
      << " ops/s; split window " << fmt_double(split, 0)
      << "; after heal " << fmt_double(healed, 0) << "\n";
  out << "Expected: the minority node fences within its lease "
         "(~2 s), the majority re-delegates after detection plus the "
         "takeover grace, and no write is ever acknowledged by the "
         "fenced side; after heal the node reconciles and the "
         "cluster returns to the pre-cut level.\n";
  write_timeline(cluster, o);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, 0, {"crash", "partition"});
  const bool partition = args.scenario == "partition";
  if (partition) {
    banner("Availability — partition, fencing, quorum takeover, heal",
           "split-brain safety: authority epochs, leases and quorum-gated "
           "takeover under a network partition");
  } else {
    banner("Availability — crash, detection, takeover, restart, rejoin",
           "paper: section 4.6 (failure recovery via shared storage and "
           "journal replay)");
  }
  const std::string csv_name =
      partition ? "availability_partition" : "availability";
  CsvWriter csv(csv_path(csv_name));
  csv.header({"time_s", "avg_tput"});
  std::vector<Run<>> runs{
      {failure_config(4, args.quick ? 160 : 400, args.quick ? 250 : 400),
       partition ? run_partition : run_crash}};
  run_all(args, std::move(runs), &csv);
  std::cout << "CSV: " << csv_path(csv_name) << "\n";
  return 0;
}
