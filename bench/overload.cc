// Overload-protection experiment: metastable failure and its cure.
//
// The failure mode (Bronson et al., HotOS '21, applied to an MDS cluster):
// unbounded FIFO queues plus fixed-timeout closed-loop retries mean that
// once queueing delay exceeds the client timeout, every request the
// server finishes was already abandoned — the reply is discarded as
// stale, the client has long since retried, and the retry sits behind
// the same doomed backlog. Goodput collapses to ~zero and *stays* there
// after the triggering spike ends, because the sustaining feedback loop
// (timeouts -> retries -> more queueing) is self-reinforcing.
//
// The protection layer under test (mds/admission.h, client/retry_policy.h):
//   - bounded CPU/disk queues: depth + queued-service-time backlog caps,
//   - token-bucket admission with a write cost and a retry reserve
//     (retried requests only admitted from surplus),
//   - explicit Rejected{retry_after} replies instead of silent queueing,
//   - client retry budgets (retries throttle to a fraction of successes),
//   - request deadlines so provably-dead work is dropped at admission.
//
// Three scenarios share the harness:
//
//   --scenario=ladder   Sustained offered load at 1x..10x capacity,
//                       protection off vs on: goodput, p99 of admitted
//                       requests, shed rate, queue depth stats per rung.
//
//   --scenario=spike    (default) Steady baseline at ~0.6x capacity, then
//                       a 5 s flash crowd at >10x. Off: goodput collapses
//                       and never recovers. On: sheds the surplus, holds
//                       goodput near capacity, recovers within seconds of
//                       the spike ending (time-to-recover is measured).
//
//   --scenario=chaos    The spike composed with a FaultPlan: one MDS
//                       crashes mid-storm and restarts later. Overload
//                       protection must not confuse failover (retries to
//                       survivors are legitimate) with retry storms.
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "core/fault_plan.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

// Service time chosen so CPU is the bottleneck and capacity is crisp:
// 3 nodes / 1.5 ms = ~2000 ops/s cluster-wide.
constexpr SimTime kCpuService = from_micros(1500);
constexpr int kNumMds = 3;

double theoretical_capacity() {
  return static_cast<double>(kNumMds) * static_cast<double>(kSecond) /
         static_cast<double>(kCpuService);
}

SimConfig base_config(bool quick, bool protect) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = kNumMds;
  // The client population must dwarf timeout x capacity: metastability
  // needs enough concurrent closed loops that their retry arrivals alone
  // exceed capacity (N / (timeout + mean backoff) > capacity).
  cfg.num_clients = quick ? 4000 : 5000;
  // Small, fully cacheable, world-readable namespace: neither the disk
  // nor permission denials become part of the story.
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 200;
  cfg.fs.world_readable_fraction = 1.0;
  cfg.mds.cache_capacity = 8000;
  cfg.mds.cpu_request = kCpuService;
  cfg.mds.cpu_per_component = 0;
  cfg.client_retry.request_timeout = kSecond;
  cfg.trace.enabled = true;  // p99 for admitted (served) requests
  cfg.workload = WorkloadKind::kFlashCrowd;
  cfg.flash.base_write_fraction = 0.10;  // exercise the write class
  if (protect) {
    OverloadParams& ov = cfg.mds.overload;
    ov.enabled = true;
    ov.max_cpu_queue_depth = 64;
    ov.max_cpu_queue_delay = from_millis(200);
    // Per-node rate; one admission per request regardless of forwarding.
    // Set above the per-node service rate (1/1.5ms = 666/s): the token
    // bucket is the storm gate, the queue-delay cap does the fine-grained
    // bounding near capacity.
    ov.admit_rate = 900.0;
    ov.admit_burst = 96.0;
    ov.write_cost = 2.0;
    ov.retry_reserve = 0.25;
    ov.retry_after_base = from_millis(100);
    cfg.client_retry.budget.enabled = true;
    cfg.client_retry.budget.ratio = 0.2;
    cfg.client_retry.budget.cap = 8.0;
  }
  return cfg;
}

/// p99 (ms) over the op types this bench issues, from the trace
/// collector. Only *served* requests have traces, so this is the latency
/// of admitted work — exactly what the bounded queue is meant to bound.
double p99_ms(ClusterSim& cluster) {
  // Same bucket layout as TraceCollector's histograms (1 ns .. 10 s,
  // 20 buckets/decade) — merge() folds bucket-by-bucket.
  LogHistogram h(1.0, 1e10, 20);
  h.merge(cluster.tracer()->total_hist(OpType::kStat));
  h.merge(cluster.tracer()->total_hist(OpType::kSetattr));
  h.merge(cluster.tracer()->total_hist(OpType::kOpen));
  if (h.total_count() == 0) return 0.0;
  return h.percentile(99.0) / 1e6;
}

// --- ladder ----------------------------------------------------------------

/// One rung's numbers over the window from warm-up to the end of the run.
struct Rung {
  double goodput = 0.0;
  double shed_rate = 0.0;
  double p99 = 0.0;
  std::uint64_t rejects = 0;
  std::size_t queue_hw = 0;
  double qmean = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t retries_suppressed = 0;
  std::uint64_t ops_failed = 0;
};

void run_rung(const SimConfig& cfg, Output<Rung>& o) {
  ClusterSim cluster(cfg);
  cluster.run_until(cfg.warmup);
  const ClientStats base = cluster.cohort().totals();
  cluster.run_until(cfg.duration);
  const ClientStats end = cluster.cohort().totals();
  const double secs = to_seconds(cfg.duration - cfg.warmup);

  Metrics& m = cluster.metrics();
  Rung& r = o.value;
  r.goodput = static_cast<double>(end.ops_ok - base.ops_ok) / secs;
  r.shed_rate = static_cast<double>(m.total_sheds()) / secs;
  r.p99 = p99_ms(cluster);
  r.rejects = m.total_rejects();
  r.queue_hw = m.cpu_queue_highwater();
  r.qmean = m.mean_cpu_queue_depth(cfg.duration);
  r.retries = end.retries - base.retries;
  r.retries_suppressed = end.retries_suppressed - base.retries_suppressed;
  r.ops_failed = end.ops_failed - base.ops_failed;
}

int run_ladder(const BenchArgs& args) {
  banner("Overload ladder — sustained offered load, protection off vs on",
         "bounded queues + token-bucket admission + retry budgets under "
         "1x..10x offered load");
  const std::vector<double> multipliers =
      args.quick ? std::vector<double>{0.5, 4, 10}
                 : std::vector<double>{0.5, 1, 2, 4, 6, 8, 10};
  const double capacity = theoretical_capacity();

  std::vector<Run<Rung>> runs;
  for (int protect = 0; protect <= 1; ++protect) {
    for (double mult : multipliers) {
      SimConfig cfg = base_config(args.quick, protect != 0);
      cfg.duration = args.quick ? 12 * kSecond : 20 * kSecond;
      cfg.warmup = 3 * kSecond;
      // No crowd: the ladder is pure steady background load.
      cfg.flash.start = cfg.duration + kSecond;
      cfg.flash.base_think = static_cast<SimTime>(
          static_cast<double>(cfg.num_clients) / (mult * capacity) *
          static_cast<double>(kSecond));
      runs.push_back({cfg, run_rung});
    }
  }
  const auto rungs = run_all(args, std::move(runs), nullptr);

  CsvWriter csv(csv_path("overload_ladder"));
  csv.header({"protection", "multiplier", "offered_ops", "goodput_ops",
              "goodput_frac", "p99_ms", "shed_per_s", "rejects", "queue_hw",
              "queue_mean_depth", "retries", "retries_suppressed",
              "ops_failed"});

  ConsoleTable table({"prot", "mult", "offered/s", "goodput/s", "p99 ms",
                      "shed/s", "q-hw", "q-mean"});
  double reference = 0.0;  // goodput at the healthy rung, protection off
  auto rung = rungs.begin();
  for (int protect = 0; protect <= 1; ++protect) {
    for (double mult : multipliers) {
      const Rung& r = (rung++)->value;
      const double offered = mult * capacity;
      if (protect == 0 && mult == multipliers.front()) reference = r.goodput;

      csv.field(protect).field(mult).field(offered).field(r.goodput);
      csv.field(reference > 0 ? r.goodput / reference : 0.0);
      csv.field(r.p99).field(r.shed_rate).field(r.rejects);
      csv.field(r.queue_hw).field(r.qmean);
      csv.field(r.retries).field(r.retries_suppressed).field(r.ops_failed);
      csv.end_row();

      table.add_row({protect ? "on" : "off", fmt_double(mult, 0),
                     fmt_double(offered, 0), fmt_double(r.goodput, 0),
                     fmt_double(r.p99, 1), fmt_double(r.shed_rate, 0),
                     std::to_string(r.queue_hw), fmt_double(r.qmean, 1)});
    }
  }
  table.print();
  std::cout << "Reference goodput (healthy rung, protection off): "
            << fmt_double(reference, 0) << " ops/s\n";
  std::cout << "Expected: without protection the queue grows without bound "
               "past ~2x and served requests are already stale (goodput "
               "falls as offered load rises); with protection goodput "
               "plateaus near capacity, admitted-request p99 stays bounded "
               "by the queue-delay cap, and the surplus is shed.\n";
  std::cout << "CSV: " << csv_path("overload_ladder") << "\n";
  return 0;
}

// --- spike-and-recover -----------------------------------------------------

/// What the spike verdict reads.
struct SpikeOutcome {
  double baseline = 0.0;    // pre-spike goodput
  double after = 0.0;       // goodput from spike end to run end
  double recover_s = -1.0;  // spike end -> sustained recovery; -1 = never
};

/// Writes the goodput timeline after warm-up as CSV rows, one per 500 ms
/// slice labelled `protect`, and the run's report under `label`.
void run_spike_once(const SimConfig& cfg, const FaultPlan& plan, int protect,
                    const char* label, Output<SpikeOutcome>& o) {
  constexpr SimTime kSlice = 500 * kMillisecond;
  const SimTime spike_end = cfg.flash.start + cfg.flash.duration;
  ClusterSim cluster(cfg);
  cluster.run_until(0);
  plan.arm(cluster);

  SpikeOutcome& out = o.value;
  std::uint64_t prev_ok = 0;
  std::uint64_t prev_shed = 0;
  Summary base_sum, storm_sum, after_sum;
  const double recover_bar_frac = 0.8;
  SimTime recovered_at = 0;
  int consecutive = 0;

  for (SimTime t = kSlice; t <= cfg.duration; t += kSlice) {
    cluster.run_until(t);
    const ClientStats ct = cluster.cohort().totals();
    const std::uint64_t sheds = cluster.metrics().total_sheds();
    const double goodput =
        static_cast<double>(ct.ops_ok - prev_ok) / to_seconds(kSlice);
    const double shed_rate =
        static_cast<double>(sheds - prev_shed) / to_seconds(kSlice);
    prev_ok = ct.ops_ok;
    prev_shed = sheds;
    if (t <= cfg.warmup) continue;  // client counters reset never; metrics at warmup
    o.rows.field(protect).field(to_seconds(t)).field(goodput).field(shed_rate);
    o.rows.end_row();
    if (t <= cfg.flash.start) {
      base_sum.add(goodput);
    } else if (t <= spike_end) {
      storm_sum.add(goodput);
    } else {
      after_sum.add(goodput);
      // Sustained recovery: two consecutive slices at >= 80% of baseline.
      if (base_sum.count() > 0 &&
          goodput >= recover_bar_frac * base_sum.mean()) {
        if (++consecutive >= 2 && out.recover_s < 0) {
          recovered_at = t - kSlice;  // first slice of the pair
          out.recover_s = to_seconds(recovered_at - spike_end);
        }
      } else {
        consecutive = 0;
        if (out.recover_s >= 0 && t - recovered_at <= 4 * kSecond) {
          // Fell back under the bar right after "recovering": not
          // sustained, keep looking.
          out.recover_s = -1.0;
        }
      }
    }
  }

  out.baseline = base_sum.count() ? base_sum.mean() : 0.0;
  out.after = after_sum.count() ? after_sum.mean() : 0.0;
  std::uint64_t shed_queue = 0, shed_bucket = 0, shed_deadline = 0;
  double max_cpu_wait_s = 0.0;  // worst queue wait of any *served* job
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MdsStats& s = cluster.mds(i).stats();
    shed_queue += s.requests_shed_queue;
    shed_bucket += s.requests_shed_admission;
    shed_deadline += s.requests_shed_deadline;
    max_cpu_wait_s =
        std::max(max_cpu_wait_s, cluster.mds(i).cpu().wait_times().max());
  }
  const ClientStats totals = cluster.cohort().totals();
  const Summary episodes =
      cluster.fault_log().episode_spans(Episode::Kind::kOverload);

  o.out << label << ":\n"
        << "  goodput baseline " << fmt_double(out.baseline, 0)
        << " ops/s; during spike "
        << fmt_double(storm_sum.count() ? storm_sum.mean() : 0.0, 0)
        << "; after spike " << fmt_double(out.after, 0) << "\n"
        << "  time-to-recover ";
  if (out.recover_s < 0) {
    o.out << "NEVER (metastable: goodput did not return to 80% of "
             "baseline)";
  } else {
    o.out << fmt_double(out.recover_s, 1) << " s after the spike ended";
  }
  o.out << "\n  end-to-end p99 (incl. retry stalls) "
        << fmt_double(p99_ms(cluster), 1)
        << " ms; max CPU queue wait of served "
        << fmt_double(max_cpu_wait_s * 1e3, 1) << " ms; CPU queue high-water "
        << cluster.metrics().cpu_queue_highwater() << "\n"
        << "  sheds " << cluster.metrics().total_sheds() << " (queue "
        << shed_queue << ", bucket " << shed_bucket << ", deadline "
        << shed_deadline << "); rejected replies " << totals.rejected_replies
        << "; retries " << totals.retries << "; suppressed "
        << totals.retries_suppressed << "; stale " << totals.stale_replies
        << "; ops failed " << totals.ops_failed << "\n";
  if (episodes.count() > 0) {
    o.out << "  overload episodes: " << episodes.count() << ", mean length "
          << fmt_double(episodes.mean(), 1) << " s\n";
  }
}

SimConfig spike_config(bool quick, bool protect) {
  SimConfig cfg = base_config(quick, protect);
  cfg.duration = quick ? 30 * kSecond : 40 * kSecond;
  cfg.warmup = 3 * kSecond;
  const double capacity = theoretical_capacity();
  // Baseline ~0.35x of theoretical capacity (~half of delivered capacity
  // once forwarding overhead is paid); the crowd window drives >10x.
  cfg.flash.base_think = static_cast<SimTime>(
      static_cast<double>(cfg.num_clients) / (0.35 * capacity) *
      static_cast<double>(kSecond));
  cfg.flash.start = 8 * kSecond;
  cfg.flash.duration = 5 * kSecond;
  cfg.flash.think = from_millis(5);
  return cfg;
}

/// The spike with protection off and then on, each with `plan` armed and
/// reported under its label; writes the goodput timeline CSV and returns
/// both outcomes.
std::vector<Output<SpikeOutcome>> run_spike_pair(
    const BenchArgs& args, const std::string& csv_name, const FaultPlan& plan,
    const char* off_label, const char* on_label) {
  CsvWriter csv(csv_path(csv_name));
  csv.header({"protection", "time_s", "goodput_ops", "shed_per_s"});
  std::vector<Run<SpikeOutcome>> runs;
  for (int protect : {0, 1}) {
    const char* label = protect ? on_label : off_label;
    runs.push_back({spike_config(args.quick, protect != 0),
                    [plan, protect, label](const SimConfig& c,
                                           Output<SpikeOutcome>& o) {
                      run_spike_once(c, plan, protect, label, o);
                    }});
  }
  return run_all(args, std::move(runs), &csv);
}

int run_spike(const BenchArgs& args) {
  banner("Overload spike — metastable collapse vs bounded recovery",
         "a 5 s flash crowd at >10x capacity on a ~0.6x baseline; "
         "protection off collapses and stays down, protection on sheds "
         "and recovers");
  const auto outcomes = run_spike_pair(args, "overload_spike", FaultPlan(),
                                       "Protection OFF", "Protection ON");
  const SpikeOutcome& off = outcomes[0].value;
  const SpikeOutcome& on = outcomes[1].value;

  const bool off_collapsed =
      off.baseline > 0 && off.after < 0.5 * off.baseline;
  const bool on_held = on.baseline > 0 && on.after >= 0.8 * on.baseline &&
                       on.recover_s >= 0;
  std::cout << "Verdict: protection-off "
            << (off_collapsed ? "collapsed (goodput < 50% of baseline after "
                                "the spike)"
                              : "DID NOT collapse — tune the spike harder")
            << "; protection-on "
            << (on_held ? "held (>= 80% of baseline, recovered)"
                        : "DID NOT hold — tune admission")
            << "\n";
  std::cout << "CSV: " << csv_path("overload_spike") << "\n";
  return (off_collapsed && on_held) ? 0 : 1;
}

// --- chaos: spike + crash mid-storm ---------------------------------------

int run_chaos(const BenchArgs& args) {
  banner("Overload chaos — flash crowd composed with an MDS crash",
         "one node crashes mid-storm and restarts later; failover retries "
         "must survive the retry budget while the storm is shed");
  const MdsId victim = 1;
  FaultPlan plan;
  plan.crash(10 * kSecond, victim, /*warm=*/true)
      .restart(20 * kSecond, victim);
  run_spike_pair(args, "overload_chaos", plan, "Protection OFF (with crash)",
                 "Protection ON (with crash)");
  std::cout << "Expected: the crash deepens the storm (a third of capacity "
               "gone at peak); with protection on the survivors shed "
               "harder but stay live, and the cluster still recovers after "
               "the restart instead of staying collapsed.\n";
  std::cout << "CSV: " << csv_path("overload_chaos") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv, 0,
                                    {"spike", "ladder", "chaos", "all"});
  if (args.scenario == "ladder") return run_ladder(args);
  if (args.scenario == "chaos") return run_chaos(args);
  if (args.scenario == "all") {
    const int a = run_ladder(args);
    const int b = run_spike(args);
    const int c = run_chaos(args);
    return a != 0 ? a : (b != 0 ? b : c);
  }
  return run_spike(args);
}
