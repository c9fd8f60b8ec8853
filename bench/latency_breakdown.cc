// Latency breakdown: per-request tracing under a general-purpose workload
// on the dynamic-subtree strategy. Answers "where does a metadata op's
// time go?" — per stage (network, CPU queue/service, disk, journal,
// fetch/replica waits) and per op type — and dumps the slowest requests
// with their full per-stage attribution.
//
// Also serves as the tracing acceptance gate: the per-op stage sums must
// reconcile exactly (same count, bit-equal totals modulo the ns->s float
// conversion) with the client-side latency Summary the figures report,
// and two runs with the same seed must produce byte-identical CSVs
// (checked in CI by diffing the output of two invocations).
#include <cmath>

#include "bench_util.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

constexpr double kNsPerMs = 1e6;

SimConfig breakdown_config(bool quick) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 8;
  cfg.num_clients = 480;
  cfg.fs.num_users = 192;
  cfg.workload = WorkloadKind::kGeneral;
  // Cache at half the metadata set so fetch/disk stages actually appear.
  cfg.cache_fraction = 0.5;
  cfg.duration = 60 * kSecond;
  cfg.warmup = 10 * kSecond;
  cfg.trace.enabled = true;
  cfg.trace.slowest_n = 32;
  if (quick) {
    cfg.num_mds = 4;
    cfg.num_clients = 160;
    cfg.fs.num_users = 64;
    cfg.duration = 20 * kSecond;
    cfg.warmup = 4 * kSecond;
  }
  return cfg;
}

/// Stage sums vs client-observed latency: counts must match exactly and
/// totals to float conversion noise. Returns false (and explains) if not.
bool reconcile(const TraceCollector& tr, const Summary& client_lat) {
  const std::uint64_t traced = tr.completed();
  const std::uint64_t observed = client_lat.count();
  if (traced != observed) {
    std::cout << "RECONCILIATION FAILED: " << traced
              << " traced completions vs " << observed
              << " client latency samples\n";
    return false;
  }
  const double traced_s = static_cast<double>(tr.grand_total_ns()) / 1e9;
  const double observed_s = client_lat.sum();
  const double denom = std::max(std::abs(observed_s), 1e-12);
  const double rel = std::abs(traced_s - observed_s) / denom;
  if (rel > 1e-6) {
    std::cout << "RECONCILIATION FAILED: traced total " << traced_s
              << " s vs client-observed " << observed_s
              << " s (relative error " << rel << ")\n";
    return false;
  }
  std::cout << "  reconciliation: " << traced << " ops, "
            << fmt_double(traced_s, 3) << " s attributed, relative error "
            << rel << "\n";
  return true;
}

struct Traced {
  TraceCollector tracer;
  Summary client_latency;
};

void simulate(const SimConfig& cfg, Output<Traced>& o) {
  ClusterSim cluster(cfg);
  cluster.run();
  o.value = {*cluster.tracer(), cluster.metrics().client_latency()};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Latency breakdown — per-request tracing and attribution",
         "where a metadata op's time goes, by stage and op type");

  std::vector<Run<Traced>> runs{{breakdown_config(args.quick), simulate}};
  const Traced run = run_all(args, std::move(runs), nullptr).front().value;
  const TraceCollector* tr = &run.tracer;

  // Per-op end-to-end table.
  ConsoleTable ops({"op", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                    "top stage", "share"});
  for (int op = 0; op < kNumOpTypes; ++op) {
    const auto o = static_cast<OpType>(op);
    if (tr->completed(o) == 0) continue;
    const LogHistogram& h = tr->total_hist(o);
    // Dominant stage by accumulated time.
    int top = 0;
    std::uint64_t top_ns = 0;
    for (int s = 0; s < kNumTraceStages; ++s) {
      const std::uint64_t ns = tr->stage_total_ns(static_cast<TraceStage>(s), o);
      if (ns > top_ns) {
        top_ns = ns;
        top = s;
      }
    }
    const double share =
        tr->total_ns(o) > 0
            ? static_cast<double>(top_ns) / static_cast<double>(tr->total_ns(o))
            : 0.0;
    ops.add_row({std::string(op_name(o)), std::to_string(tr->completed(o)),
                 fmt_double(static_cast<double>(tr->total_ns(o)) /
                                static_cast<double>(tr->completed(o)) /
                                kNsPerMs,
                            3),
                 fmt_double(h.percentile(50) / kNsPerMs, 3),
                 fmt_double(h.percentile(95) / kNsPerMs, 3),
                 fmt_double(h.percentile(99) / kNsPerMs, 3),
                 std::string(trace_stage_name(static_cast<TraceStage>(top))),
                 fmt_double(share, 2)});
  }
  ops.print("End-to-end latency by op type");

  // Cluster-wide stage shares (all ops pooled).
  std::uint64_t grand = tr->grand_total_ns();
  ConsoleTable stages({"stage", "total_s", "share"});
  for (int s = 0; s < kNumTraceStages; ++s) {
    std::uint64_t ns = 0;
    for (int op = 0; op < kNumOpTypes; ++op) {
      ns += tr->stage_total_ns(static_cast<TraceStage>(s),
                               static_cast<OpType>(op));
    }
    if (ns == 0) continue;
    stages.add_row(
        {std::string(trace_stage_name(static_cast<TraceStage>(s))),
         fmt_double(static_cast<double>(ns) / 1e9, 3),
         fmt_double(grand > 0 ? static_cast<double>(ns) /
                                    static_cast<double>(grand)
                              : 0.0,
                    3)});
  }
  stages.print("Attributed time by stage (all ops)");

  std::cout << "\n";
  if (!reconcile(*tr, run.client_latency)) return 1;

  CsvWriter breakdown(csv_path("latency_breakdown"));
  tr->write_breakdown_csv(breakdown);
  CsvWriter slowest(csv_path("latency_slowest"));
  tr->write_slowest_csv(slowest);
  std::cout << "CSV: " << csv_path("latency_breakdown") << "\n"
            << "CSV: " << csv_path("latency_slowest") << "\n"
            << "Inspect with: python3 tools/trace_top.py "
            << results_dir() << "\n";
  return 0;
}
