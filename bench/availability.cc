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

void print_summary(const char* label, const Summary& s) {
  std::cout << "  " << label << ": ";
  if (s.count() == 0) {
    std::cout << "(no samples)\n";
    return;
  }
  std::cout << fmt_double(s.mean(), 3) << " s (n=" << s.count() << ")\n";
}

SimConfig base_config(bool quick) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = quick ? 160 : 400;
  cfg.fs.num_users = 24 * cfg.num_mds;
  cfg.fs.nodes_per_user = quick ? 250 : 400;
  cfg.mds.cache_capacity = 3000;
  cfg.duration = 40 * kSecond;
  cfg.warmup = 3 * kSecond;
  cfg.client_retry.request_timeout = kSecond;
  return cfg;
}

void dump_throughput(ClusterSim& cluster, const std::string& csv_name) {
  CsvWriter csv(csv_path(csv_name));
  csv.header({"time_s", "avg_tput"});
  for (const auto& p : cluster.metrics().avg_throughput().points()) {
    csv.field(to_seconds(p.time)).field(p.value);
    csv.end_row();
  }
  std::cout << "CSV: " << csv_path(csv_name) << "\n";
}

int run_crash(bool quick) {
  banner("Availability — crash, detection, takeover, restart, rejoin",
         "paper: section 4.6 (failure recovery via shared storage and "
         "journal replay)");
  SimConfig cfg = base_config(quick);

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
  const std::uint64_t retries = clients.retries;
  const std::uint64_t stale = clients.stale_replies;
  const std::uint64_t failed = clients.ops_failed;
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
  std::cout << "Lifecycle spans (FaultLog):\n";
  print_summary("detection latency (crash -> first survivor detection)",
                cluster.fault_log().detection_latency_seconds(now));
  print_summary("unavailability (crash -> delegations taken over)",
                cluster.fault_log().unavailability_seconds(now));
  print_summary("recovery time (restart -> journal replayed, rejoined)",
                cluster.fault_log().recovery_time_seconds(now));
  std::cout << "Counters: detections " << detections << "; takeovers "
            << takeovers << "; warm-replayed items " << warm_items
            << "; client retries " << retries << "; stale replies " << stale
            << "; ops abandoned " << failed << "\n";
  std::cout << "Throughput: healthy " << fmt_double(before, 0)
            << " ops/s; crash window " << fmt_double(dip, 0)
            << "; after rejoin " << fmt_double(recovered, 0) << "\n";
  std::cout << "Expected: a dip bounded by the heartbeat-miss horizon plus "
               "the quorum-takeover grace, then recovery to the pre-crash "
               "level once the restarted node replays its journal and "
               "reacquires load.\n";
  dump_throughput(cluster, "availability");
  return 0;
}

int run_partition(bool quick) {
  banner("Availability — partition, fencing, quorum takeover, heal",
         "split-brain safety: authority epochs, leases and quorum-gated "
         "takeover under a network partition");
  SimConfig cfg = base_config(quick);

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
  const std::uint64_t retries = clients.retries;
  const std::uint64_t stale = clients.stale_replies;
  const std::uint64_t failed = clients.ops_failed;
  std::uint64_t fences = 0, unfences = 0, parked = 0, stale_rejects = 0;
  std::uint64_t deferred = 0, takeovers = 0, reconciled = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MdsStats& s = cluster.mds(i).stats();
    fences += s.fence_events;
    unfences += s.unfence_events;
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
  std::cout << "Lifecycle spans (FaultLog):\n";
  for (const auto& f : cluster.fault_log().fence_incidents()) {
    std::cout << "  mds " << f.node << " fenced at "
              << fmt_double(to_seconds(f.fenced_at), 3) << " s ("
              << fmt_double(to_seconds(f.fenced_at) - to_seconds(cut_at), 3)
              << " s after the cut), unfenced at "
              << fmt_double(to_seconds(f.unfenced_at), 3) << " s\n";
  }
  std::cout << "  minority write stall (fenced node-seconds): "
            << fmt_double(cluster.fault_log().minority_stall_seconds(now), 3)
            << " s\n";
  std::cout << "Counters: fences " << fences << "; unfences " << unfences
            << "; writes parked while fenced " << parked
            << "; stale-epoch rejects " << stale_rejects
            << "; takeovers deferred (no quorum) " << deferred
            << "; takeovers executed " << takeovers
            << "; reconcile-dropped items " << reconciled
            << "; partition-dropped messages "
            << cluster.network().partition_dropped() << "; client retries "
            << retries << "; stale replies " << stale << "; ops abandoned "
            << failed << "\n";
  if (subtree != nullptr) {
    std::cout << "Map epoch at end: " << subtree->epoch()
              << " (1 = never reconfigured)\n";
  }
  std::cout << "Throughput: healthy " << fmt_double(before, 0)
            << " ops/s; split window " << fmt_double(split, 0)
            << "; after heal " << fmt_double(healed, 0) << "\n";
  std::cout << "Expected: the minority node fences within its lease "
               "(~2 s), the majority re-delegates after detection plus the "
               "takeover grace, and no write is ever acknowledged by the "
               "fenced side; after heal the node reconciles and the "
               "cluster returns to the pre-cut level.\n";
  dump_throughput(cluster, "availability_partition");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string scenario = "crash";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(11);
    }
  }
  if (scenario == "partition") return run_partition(quick);
  return run_crash(quick);
}
