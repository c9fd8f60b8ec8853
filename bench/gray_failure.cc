// Gray-failure experiment: fail-slow injection vs health-aware mitigation.
//
// The failure mode (Huang et al., "Gray Failure: The Achilles' Heel of
// Cloud-Scale Systems", HotOS '17, applied to an MDS cluster): one node's
// disk starts serving every I/O 10x slower — a dying spindle, a firmware
// retry storm — while its CPU, network and heartbeats stay perfectly
// healthy. Liveness detection never fires (the node is not dead), yet the
// whole cluster's tail latency is hostage to the sick node: every request
// that touches its territory queues behind a disk that drains at a tenth
// of the arrival rate. Worse, the balancer makes it *worse*: a fail-slow
// node serves fewer ops, so its throughput-based load metric sags, so
// healthy peers see an "underloaded" target and migrate work toward it.
//
// The mitigation layer under test (mds/params.h HealthParams,
// client/hedge_policy.h):
//   - health scoring: every heartbeat carries the sender's self-measured
//     service lag; receivers EWMA it (plus delivery lag) into a per-peer
//     score and flag nodes that cross degraded_factor x the alive median,
//   - balancer bias: flagged peers are vetoed as migration targets, and a
//     self-flagged node volunteers its territory away at a much lower
//     trigger instead of waiting to look "busy",
//   - hedged reads: clients fire one backup copy of a slow read at the
//     op class's ~p99 delay; a replica holder answers locally, so reads
//     stop paying the sick node's queue while migration catches up.
//
// Scenarios:
//
//   --scenario=failslow  (default) Three arms on the same seed: healthy
//                        baseline, fail-slow with mitigation off, fail-slow
//                        with mitigation on. Read p99 is measured over the
//                        degraded steady state (the tracer is reset after
//                        the detection + migration transient). Verdict:
//                        off must degrade p99 >= 5x baseline, on must hold
//                        it within ~2x.
//
//   --scenario=chaos     Fail-slow composed with a mid-run crash and
//                        restart of a *second* node (a likely hedge
//                        target): hedging and health routing must not
//                        confuse failover with gray degradation.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fault_plan.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

bool g_verbose = false;

constexpr int kNumMds = 8;
/// Node 0 anchors the namespace root, so it carries the largest share of
/// cluster traffic — the production-relevant worst case for a gray
/// failure, and the share that guarantees the fault is visible in a
/// cluster-wide percentile (a sliver node's stragglers would hide below
/// the p99 cut).
constexpr MdsId kVictim = 0;
constexpr double kDiskSlow = 10.0;

// Verdict bars (see header comment): the ISSUE's acceptance criteria.
constexpr double kOffDegradeMin = 5.0;  // off arm: p99 >= 5x baseline
constexpr double kOnHoldMax = 2.0;      // on arm: p99 <= ~2x baseline

SimConfig base_config(bool quick, bool mitigate) {
  // The cache-sweep preset (8 nodes, 480 clients) pinned cache-rich: the
  // healthy baseline barely touches disk (hit rate ~99.9%), so its tail
  // is CPU/network queueing — small and stable. The fail-slow disk then
  // bites through the one path every op class still pays the disk on:
  // updates journal at their authority before replying, so the victim's
  // 10x journal turns ~1/8 of cluster updates into queued stragglers,
  // and the clients stuck behind them pile up (closed loop) until the
  // victim's share of completions carries hundred-of-ms latencies. In a
  // disk-saturated preset the baseline tail would drown the signal; in
  // this one the fault owns the tail.
  SimConfig cfg = cache_sweep_config(StrategyKind::kDynamicSubtree,
                                     /*cache_fraction=*/0.35, /*seed=*/42);
  cfg.trace.enabled = true;  // p99 via the trace collector's histograms
  // A spinning-disk journal with no NVRAM front: every update pays a ~1 ms
  // sequential append at its authority before the reply. Healthy, the
  // victim's journal runs ~50-60% utilized — invisible in the tail. At 10x
  // it drains slower than updates arrive, and because the workload is a
  // closed loop the pileup self-limits at a stable fixed point: enough
  // clients parked behind the journal that the remainder's update arrivals
  // match the crippled drain rate. Completions keep flowing at that rate —
  // a steady >=1% of cluster completions carrying multi-second latencies —
  // which is exactly what a *cluster-wide* p99 can see. (A saturated
  // store queue, by contrast, censors itself: its completion rate drops
  // below the percentile cut while clients just park.)
  cfg.mds.disk.journal_append_time = kMillisecond;
  // One sustained timeline for every arm: warmup, healthy plateau, the
  // fault window opening at 8 s and never closing.
  cfg.warmup = 4 * kSecond;
  cfg.duration = quick ? 24 * kSecond : 30 * kSecond;
  if (quick) cfg.num_clients = 360;
  if (mitigate) {
    cfg.mds.health.enabled = true;
    cfg.hedge.enabled = true;
  }
  return cfg;
}

constexpr SimTime kFaultAt = 8 * kSecond;
/// Measurement starts here: past the detection EWMA (a few heartbeats)
/// and the first volunteer migration, so the arms are compared in their
/// steady states, not during the transient.
SimTime measure_from(const SimConfig& cfg) {
  return std::min<SimTime>(18 * kSecond, cfg.duration / 2 + kFaultAt / 2);
}

/// Cluster p99/mean (ms) over every op class, plus the read-only p99 the
/// hedging layer specifically covers.
struct TailLatency {
  double p99_ms = 0.0;       // all ops — the ISSUE's "cluster p99"
  double read_p99_ms = 0.0;  // stat/open/close/readdir only
  double mean_ms = 0.0;
};

TailLatency tail_latency(ClusterSim& cluster) {
  LogHistogram all(1.0, 1e10, 20);
  LogHistogram reads(1.0, 1e10, 20);
  for (int t = 0; t < kNumOpTypes; ++t) {
    const OpType op = static_cast<OpType>(t);
    const LogHistogram& h = cluster.tracer()->total_hist(op);
    all.merge(h);
    if (!op_is_update(op)) reads.merge(h);
  }
  TailLatency r;
  if (all.total_count() == 0) return r;
  r.p99_ms = all.percentile(99.0) / 1e6;
  r.mean_ms = all.mean() / 1e6;
  if (reads.total_count() > 0) r.read_p99_ms = reads.percentile(99.0) / 1e6;
  return r;
}

struct Outcome {
  TailLatency lat;
  double goodput = 0.0;        // ops_ok/s over the measured window
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t wasted = 0;
  std::uint64_t stale = 0;
  double gray_seconds = 0.0;   // node-seconds flagged degraded
  std::uint64_t gray_incidents = 0;
  std::uint64_t victim_migrations_out = 0;
};

Outcome run_arm(const SimConfig& cfg, const FaultPlan* plan) {
  ClusterSim cluster(cfg);
  cluster.run_until(0);
  if (plan != nullptr) plan->arm(cluster);
  const SimTime m0 = measure_from(cfg);
  cluster.run_until(m0);
  // Steady-state window: drop the healthy plateau and the mitigation
  // transient from the latency histograms.
  cluster.tracer()->reset();
  const std::uint64_t ok0 = cluster.cohort().totals().ops_ok;
  cluster.run_until(cfg.duration);

  const ClientStats clients = cluster.cohort().totals();
  Outcome out;
  out.lat = tail_latency(cluster);
  out.goodput = static_cast<double>(clients.ops_ok - ok0) /
                to_seconds(cfg.duration - m0);
  out.hedges = clients.hedges_fired;
  out.hedge_wins = clients.hedge_wins;
  out.wasted = clients.wasted_hedges;
  out.stale = clients.stale_replies;
  out.gray_seconds =
      cluster.fault_log().gray_degraded_seconds(cluster.sim().now());
  out.gray_incidents = cluster.fault_log().gray_incidents().size();
  out.victim_migrations_out = cluster.mds(kVictim).stats().migrations_out;
  if (g_verbose) {
    std::cout << "  per-node (replies fwd migr_in/out cpu_hw disk_q hit):\n";
    for (int i = 0; i < cfg.num_mds; ++i) {
      MdsNode& n = cluster.mds(i);
      const MdsStats& s = n.stats();
      const auto& cs = n.cache().stats();
      const std::uint64_t acc = cs.hits + cs.misses;
      std::cout << "    mds" << i << ": " << s.replies_sent << " "
                << s.forwards << " " << s.migrations_in << "/"
                << s.migrations_out << " " << n.cpu().depth_highwater() << " "
                << n.disk().store_queue_depth() << " "
                << fmt_double(acc > 0 ? 100.0 * cs.hits / acc : 0.0, 1)
                << "%\n";
    }
    for (OpType t : {OpType::kStat, OpType::kOpen, OpType::kClose,
                     OpType::kReaddir, OpType::kCreate, OpType::kUnlink,
                     OpType::kChmod, OpType::kSetattr, OpType::kRename}) {
      const LogHistogram& h = cluster.tracer()->total_hist(t);
      if (h.total_count() == 0) continue;
      std::cout << "    " << op_name(t) << ": n=" << h.total_count()
                << " mean=" << fmt_double(h.mean() / 1e6, 1)
                << "ms p99=" << fmt_double(h.percentile(99.0) / 1e6, 1)
                << "ms\n";
    }
  }
  return out;
}

void csv_row(CsvWriter& csv, const char* arm, const Outcome& o) {
  csv.field(arm).field(o.lat.p99_ms).field(o.lat.read_p99_ms);
  csv.field(o.lat.mean_ms).field(o.goodput);
  csv.field(o.hedges).field(o.hedge_wins).field(o.wasted).field(o.stale);
  csv.field(o.gray_seconds).field(o.gray_incidents);
  csv.field(o.victim_migrations_out);
  csv.end_row();
}

void print_outcome(const char* label, const Outcome& o) {
  std::cout << label << ":\n"
            << "  cluster p99 " << fmt_double(o.lat.p99_ms, 1)
            << " ms (reads " << fmt_double(o.lat.read_p99_ms, 1)
            << " ms), mean " << fmt_double(o.lat.mean_ms, 2)
            << " ms, goodput " << fmt_double(o.goodput, 0) << " ops/s\n"
            << "  hedges fired " << o.hedges << " (wins " << o.hedge_wins
            << ", wasted " << o.wasted << ", stale replies " << o.stale
            << ")\n"
            << "  gray incidents " << o.gray_incidents
            << ", degraded node-seconds " << fmt_double(o.gray_seconds, 1)
            << ", victim migrations out " << o.victim_migrations_out << "\n";
}

int run_failslow(bool quick) {
  banner("Gray failure — fail-slow disk, mitigation off vs on",
         "one MDS disk at 10x service time in an 8-node cluster; health "
         "scoring + balancer bias + hedged reads vs nothing");

  FaultPlan plan;
  plan.fail_slow(kFaultAt, /*until=*/0, kVictim, /*cpu_mult=*/1.0,
                 /*disk_mult=*/kDiskSlow);

  CsvWriter csv(csv_path("gray_failslow"));
  csv.header({"arm", "cluster_p99_ms", "read_p99_ms", "mean_ms",
              "goodput_ops", "hedges", "hedge_wins", "wasted_hedges",
              "stale_replies", "gray_node_seconds", "gray_incidents",
              "victim_migrations"});

  const Outcome base = run_arm(base_config(quick, false), nullptr);
  csv_row(csv, "baseline", base);
  const Outcome off = run_arm(base_config(quick, false), &plan);
  csv_row(csv, "off", off);
  const Outcome on = run_arm(base_config(quick, true), &plan);
  csv_row(csv, "on", on);

  print_outcome("Healthy baseline", base);
  print_outcome("Fail-slow, mitigation OFF", off);
  print_outcome("Fail-slow, mitigation ON", on);

  const double off_x = base.lat.p99_ms > 0 ? off.lat.p99_ms / base.lat.p99_ms
                                           : 0.0;
  const double on_x = base.lat.p99_ms > 0 ? on.lat.p99_ms / base.lat.p99_ms
                                          : 0.0;
  const bool off_degraded = off_x >= kOffDegradeMin;
  const bool on_held = on_x > 0 && on_x <= kOnHoldMax;
  std::cout << "Verdict: mitigation-off p99 at " << fmt_double(off_x, 1)
            << "x baseline ("
            << (off_degraded ? "degraded as expected"
                             : "NOT degraded enough — tune the fault harder")
            << "); mitigation-on at " << fmt_double(on_x, 1) << "x ("
            << (on_held ? "held within the bar"
                        : "DID NOT hold — tune detection/hedging")
            << "; bars: off >= " << fmt_double(kOffDegradeMin, 0)
            << "x, on <= " << fmt_double(kOnHoldMax, 1) << "x)\n";
  std::cout << "CSV: " << csv_path("gray_failslow") << "\n";
  return (off_degraded && on_held) ? 0 : 1;
}

// --- chaos: fail-slow + crash of a likely hedge target ---------------------

int run_chaos(bool quick) {
  banner("Gray chaos — fail-slow composed with a mid-run crash",
         "the sick node stays sick while a healthy peer (a likely hedge "
         "target) crashes and restarts; mitigation must survive both");

  CsvWriter csv(csv_path("gray_chaos"));
  csv.header({"arm", "cluster_p99_ms", "read_p99_ms", "mean_ms",
              "goodput_ops", "hedges", "hedge_wins", "wasted_hedges",
              "stale_replies", "gray_node_seconds", "gray_incidents",
              "victim_migrations"});

  const MdsId crash_victim = 5;  // a healthy peer: hedges/migrations land here
  FaultPlan plan;
  plan.fail_slow(kFaultAt, /*until=*/0, kVictim, 1.0, kDiskSlow)
      .crash(14 * kSecond, crash_victim, /*warm=*/true)
      .restart(quick ? 20 * kSecond : 22 * kSecond, crash_victim);

  const Outcome off = run_arm(base_config(quick, false), &plan);
  csv_row(csv, "off", off);
  const Outcome on = run_arm(base_config(quick, true), &plan);
  csv_row(csv, "on", on);

  print_outcome("Chaos, mitigation OFF", off);
  print_outcome("Chaos, mitigation ON", on);
  std::cout << "Expected: the crash removes a hedge/migration target while "
               "the gray node is still sick; with mitigation on, hedges "
               "re-route via retries and the balancer works around both "
               "(goodput should not collapse below the off arm).\n";
  std::cout << "CSV: " << csv_path("gray_chaos") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string scenario = "failslow";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--verbose") {
      g_verbose = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(11);
    }
  }
  if (scenario == "chaos") return run_chaos(quick);
  if (scenario == "all") {
    const int a = run_failslow(quick);
    const int b = run_chaos(quick);
    return a != 0 ? a : b;
  }
  return run_failslow(quick);
}
