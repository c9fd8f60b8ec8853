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
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fault_plan.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

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

/// What the verdict reads, and the arm's report, printed after every arm
/// has run.
struct Outcome {
  double p99_ms = 0.0;
  std::string report;
};

/// Writes the arm's CSV row, and with `verbose` its per-node dump.
void run_arm(const SimConfig& cfg, const FaultPlan& plan, const char* arm,
             const char* label, bool verbose, Output<Outcome>& o) {
  ClusterSim cluster(cfg);
  cluster.run_until(0);
  plan.arm(cluster);
  const SimTime m0 = measure_from(cfg);
  cluster.run_until(m0);
  // Steady-state window: drop the healthy plateau and the mitigation
  // transient from the latency histograms.
  cluster.tracer()->reset();
  const std::uint64_t ok0 = cluster.cohort().totals().ops_ok;
  cluster.run_until(cfg.duration);

  const ClientStats c = cluster.cohort().totals();
  const TailLatency lat = tail_latency(cluster);
  // ops_ok/s over the measured window
  const double goodput =
      static_cast<double>(c.ops_ok - ok0) / to_seconds(cfg.duration - m0);
  const double gray_seconds =  // node-seconds flagged degraded
      cluster.fault_log().episode_seconds(Episode::Kind::kGray,
                                          cluster.sim().now());
  const std::uint64_t gray_incidents =
      cluster.fault_log().episodes(Episode::Kind::kGray).size();
  const std::uint64_t victim_migrations =
      cluster.mds(kVictim).stats().migrations_out;
  o.rows.field(arm).field(lat.p99_ms).field(lat.read_p99_ms);
  o.rows.field(lat.mean_ms).field(goodput);
  o.rows.field(c.hedges_fired).field(c.hedge_wins).field(c.wasted_hedges);
  o.rows.field(c.stale_replies).field(gray_seconds).field(gray_incidents);
  o.rows.field(victim_migrations);
  o.rows.end_row();

  std::ostringstream report;
  report << label << ":\n"
         << "  cluster p99 " << fmt_double(lat.p99_ms, 1) << " ms (reads "
         << fmt_double(lat.read_p99_ms, 1) << " ms), mean "
         << fmt_double(lat.mean_ms, 2) << " ms, goodput "
         << fmt_double(goodput, 0) << " ops/s\n"
         << "  hedges fired " << c.hedges_fired << " (wins " << c.hedge_wins
         << ", wasted " << c.wasted_hedges << ", stale replies "
         << c.stale_replies << ")\n"
         << "  gray incidents " << gray_incidents
         << ", degraded node-seconds " << fmt_double(gray_seconds, 1)
         << ", victim migrations out " << victim_migrations << "\n";
  o.value = {lat.p99_ms, report.str()};

  if (verbose) {
    std::ostream& os = o.out;
    os << "  per-node (replies fwd migr_in/out cpu_hw disk_q hit):\n";
    for (int i = 0; i < cfg.num_mds; ++i) {
      MdsNode& n = cluster.mds(i);
      const MdsStats& s = n.stats();
      const auto& cs = n.cache().stats();
      const std::uint64_t acc = cs.hits + cs.misses;
      os << "    mds" << i << ": " << s.replies_sent << " " << s.forwards
         << " " << s.migrations_in << "/" << s.migrations_out << " "
         << n.cpu().depth_highwater() << " " << n.disk().store_queue_depth()
         << " " << fmt_double(acc > 0 ? 100.0 * cs.hits / acc : 0.0, 1)
         << "%\n";
    }
    for (OpType t : {OpType::kStat, OpType::kOpen, OpType::kClose,
                     OpType::kReaddir, OpType::kCreate, OpType::kUnlink,
                     OpType::kChmod, OpType::kSetattr, OpType::kRename}) {
      const LogHistogram& h = cluster.tracer()->total_hist(t);
      if (h.total_count() == 0) continue;
      os << "    " << op_name(t) << ": n=" << h.total_count()
         << " mean=" << fmt_double(h.mean() / 1e6, 1)
         << "ms p99=" << fmt_double(h.percentile(99.0) / 1e6, 1) << "ms\n";
    }
  }
}

struct Arm {
  const char* name;   // in the CSV
  const char* label;  // in the report
  SimConfig cfg;
  FaultPlan plan;
};

/// Run the arms side by side; their CSV rows and --verbose dumps come out
/// in list order, then their reports.
std::vector<Output<Outcome>> run_arms(const BenchArgs& args,
                                      const std::string& csv_name,
                                      const std::vector<Arm>& arms) {
  CsvWriter csv(csv_path(csv_name));
  csv.header({"arm", "cluster_p99_ms", "read_p99_ms", "mean_ms",
              "goodput_ops", "hedges", "hedge_wins", "wasted_hedges",
              "stale_replies", "gray_node_seconds", "gray_incidents",
              "victim_migrations"});
  std::vector<Run<Outcome>> runs;
  for (const Arm& arm : arms) {
    runs.push_back({arm.cfg, [arm, verbose = args.verbose](
                                 const SimConfig& c, Output<Outcome>& o) {
                      run_arm(c, arm.plan, arm.name, arm.label, verbose, o);
                    }});
  }
  auto outputs = run_all(args, std::move(runs), &csv);
  for (const auto& o : outputs) std::cout << o.value.report;
  return outputs;
}

int run_failslow(const BenchArgs& args) {
  banner("Gray failure — fail-slow disk, mitigation off vs on",
         "one MDS disk at 10x service time in an 8-node cluster; health "
         "scoring + balancer bias + hedged reads vs nothing");

  FaultPlan plan;
  plan.fail_slow(kFaultAt, /*until=*/0, kVictim, /*cpu_mult=*/1.0,
                 /*disk_mult=*/kDiskSlow);

  const auto outcomes = run_arms(
      args, "gray_failslow",
      {{"baseline", "Healthy baseline", base_config(args.quick, false),
        FaultPlan()},
       {"off", "Fail-slow, mitigation OFF", base_config(args.quick, false),
        plan},
       {"on", "Fail-slow, mitigation ON", base_config(args.quick, true),
        plan}});
  const double base = outcomes[0].value.p99_ms;
  const double off_x = base > 0 ? outcomes[1].value.p99_ms / base : 0.0;
  const double on_x = base > 0 ? outcomes[2].value.p99_ms / base : 0.0;
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

int run_chaos(const BenchArgs& args) {
  banner("Gray chaos — fail-slow composed with a mid-run crash",
         "the sick node stays sick while a healthy peer (a likely hedge "
         "target) crashes and restarts; mitigation must survive both");

  const MdsId crash_victim = 5;  // a healthy peer: hedges/migrations land here
  FaultPlan plan;
  plan.fail_slow(kFaultAt, /*until=*/0, kVictim, 1.0, kDiskSlow)
      .crash(14 * kSecond, crash_victim, /*warm=*/true)
      .restart(args.quick ? 20 * kSecond : 22 * kSecond, crash_victim);

  run_arms(args, "gray_chaos",
           {{"off", "Chaos, mitigation OFF", base_config(args.quick, false),
             plan},
            {"on", "Chaos, mitigation ON", base_config(args.quick, true),
             plan}});
  std::cout << "Expected: the crash removes a hedge/migration target while "
               "the gray node is still sick; with mitigation on, hedges "
               "re-route via retries and the balancer works around both "
               "(goodput should not collapse below the off arm).\n";
  std::cout << "CSV: " << csv_path("gray_chaos") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, kVerboseFlag,
                                    {"failslow", "chaos", "all"});
  if (args.scenario == "chaos") return run_chaos(args);
  if (args.scenario == "all") {
    const int a = run_failslow(args);
    const int b = run_chaos(args);
    return a != 0 ? a : b;
  }
  return run_failslow(args);
}
