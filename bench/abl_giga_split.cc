// Ablation G: GIGA+ incremental directory splitting vs all-at-once
// hashing under a create storm into giant shared directories.
//
// The paper hashes a hot directory's dentries across the cluster in one
// step (section 4.3); GIGA+ splits one partition at a time and lets
// clients route on possibly-stale bitmaps, corrected by redirects. This
// bench drives the scientific checkpoint storm — every client creating
// its own file in a shared run directory — three ways (incremental,
// all-at-once, incremental + mid-storm MDS crash) and checks the two
// properties the scheme exists for:
//
//   1. No split event re-routes more than one partition's dentries
//      (the all-at-once variant books the whole directory per event).
//   2. The client redirect rate decays to ~0 after the last bitmap
//      change — stale bitmaps self-correct instead of thrashing.
//
// Exits non-zero if either property fails to hold.
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "core/fault_plan.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

struct IntervalRow {
  double t_s = 0.0;
  std::uint64_t splits = 0;
  std::uint64_t pair_merges = 0;
  std::uint64_t redirects = 0;
  double mean_latency_ms = 0.0;
};

/// What the verdict reads, and the timeline CSV's rows.
struct VariantResult {
  std::uint64_t fragment_events = 0;
  std::uint64_t split_events = 0;
  std::uint64_t max_event_moved = 0;
  std::uint64_t redirects_total = 0;
  std::uint64_t redirects_after_stable = 0;
  double tput = 0.0;
  double mean_latency_ms = 0.0;
  CsvWriter timeline;  // in memory
};

void sum_latency(ClusterSim& cluster, double* sum_s, std::uint64_t* count) {
  *sum_s = 0.0;
  *count = 0;
  for (int i = 0; i < cluster.num_clients(); ++i) {
    const Summary& s = cluster.client(i).stats().latency_seconds;
    *sum_s += s.sum();
    *count += s.count();
  }
}

/// Writes the variant's summary CSV row and console line.
void simulate(const SimConfig& cfg, const char* name, bool chaos,
              Output<VariantResult>& o) {
  ClusterSim cluster(cfg);
  FaultPlan plan;
  if (chaos) {
    // Crash a partition-owning node mid-storm (warm takeover), restart
    // it after the cluster has absorbed the loss.
    plan.crash(cfg.duration / 3, 1, /*warm=*/true)
        .restart(2 * cfg.duration / 3, 1);
    plan.arm(cluster);
  }

  VariantResult& r = o.value;
  std::vector<IntervalRow> timeline;
  const SimTime step = 2 * kSecond;
  std::uint64_t prev_splits = 0;
  std::uint64_t prev_merges = 0;
  std::uint64_t prev_redirects = 0;
  double prev_lat_sum = 0.0;
  std::uint64_t prev_lat_count = 0;
  for (SimTime t = step; t <= cfg.duration; t += step) {
    cluster.run_until(t);
    const DirFragRegistry& reg = cluster.dirfrag();
    IntervalRow row;
    row.t_s = to_seconds(t);
    row.splits = reg.split_events - prev_splits;
    row.pair_merges = reg.pair_merge_events - prev_merges;
    const std::uint64_t redirects = cluster.cohort().totals().giga_redirects;
    row.redirects = redirects - prev_redirects;
    double lat_sum;
    std::uint64_t lat_count;
    sum_latency(cluster, &lat_sum, &lat_count);
    if (lat_count > prev_lat_count) {
      row.mean_latency_ms = (lat_sum - prev_lat_sum) /
                            static_cast<double>(lat_count - prev_lat_count) *
                            1e3;
    }
    prev_splits = reg.split_events;
    prev_merges = reg.pair_merge_events;
    prev_redirects = redirects;
    prev_lat_sum = lat_sum;
    prev_lat_count = lat_count;
    timeline.push_back(row);
    r.timeline.field(name)
        .field(row.t_s)
        .field(row.splits)
        .field(row.pair_merges)
        .field(row.redirects)
        .field(row.mean_latency_ms);
    r.timeline.end_row();
  }

  const DirFragRegistry& reg = cluster.dirfrag();
  r.fragment_events = reg.fragment_events;
  r.split_events = reg.split_events;
  r.max_event_moved = reg.max_event_moved;
  r.redirects_total = cluster.cohort().totals().giga_redirects;

  // Redirects observed after the bitmap went quiet: everything strictly
  // after the interval holding the last split/pair-merge, plus one
  // settling interval for corrections already in flight.
  std::size_t last_change = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    if (timeline[i].splits > 0 || timeline[i].pair_merges > 0) {
      last_change = i;
    }
  }
  for (std::size_t i = last_change + 2; i < timeline.size(); ++i) {
    r.redirects_after_stable += timeline[i].redirects;
  }

  Metrics& m = cluster.metrics();
  r.tput = m.avg_mds_throughput(cluster.sim().now());
  const Summary lat = m.client_latency();
  r.mean_latency_ms = lat.mean() * 1e3;
  o.out << "  [" << name << "] splits " << r.split_events << ", pair merges "
        << reg.pair_merge_events << ", max moved " << r.max_event_moved
        << ", redirects " << r.redirects_total << " ("
        << r.redirects_after_stable << " after stable), latency "
        << fmt_double(r.mean_latency_ms, 2) << " ms\n";
  o.rows.field(name)
      .field(r.fragment_events)
      .field(r.split_events)
      .field(reg.pair_merge_events)
      .field(reg.merge_events)
      .field(r.max_event_moved)
      .field(reg.total_event_moved)
      .field(r.redirects_total)
      .field(r.redirects_after_stable)
      .field(r.tput)
      .field(r.mean_latency_ms)
      .field(lat.max() * 1e3)
      .field(m.total_failures());
  o.rows.end_row();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  banner("Ablation G — GIGA+ incremental splitting vs all-at-once hashing",
         "paper: section 4.3, grown per GIGA+ (incremental partitioning)");

  struct Named {
    const char* name;
    bool giga;
    bool chaos;
  };
  const Named variants[] = {{"giga", true, false},
                            {"all_at_once", false, false},
                            {"giga_chaos", true, true}};
  CsvWriter csv(csv_path("abl_giga_split"));
  csv.header({"variant", "fragment_events", "split_events",
              "pair_merge_events", "merge_events", "max_event_moved",
              "total_event_moved", "redirects_total",
              "redirects_after_stable", "avg_mds_throughput_ops",
              "mean_latency_ms", "max_latency_ms", "failures"});
  CsvWriter tl(csv_path("abl_giga_split_timeline"));
  tl.header({"variant", "t_s", "splits", "pair_merges", "redirects",
             "mean_latency_ms"});

  ConsoleTable table(
      {"variant", "splits", "max_moved", "redirects", "latency_ms"});
  std::vector<Run<VariantResult>> runs;
  for (const Named& v : variants) {
    SimConfig cfg = storm_config(args.quick);
    cfg.mds.giga_enabled = v.giga;
    cfg.duration = args.quick ? 16 * kSecond : 24 * kSecond;
    cfg.warmup = 0;  // event counters cover the whole run
    runs.push_back({cfg, [v](const SimConfig& c, Output<VariantResult>& o) {
                      simulate(c, v.name, v.chaos, o);
                    }});
  }
  const auto outputs = run_all(args, std::move(runs), &csv);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const VariantResult& r = outputs[i].value;
    tl.append(r.timeline);
    table.add_row({variants[i].name, std::to_string(r.split_events),
                   std::to_string(r.max_event_moved),
                   std::to_string(r.redirects_total),
                   fmt_double(r.mean_latency_ms, 2)});
  }
  table.print("Create storm into giant directories, three ways");

  const VariantResult& giga = outputs[0].value;
  const VariantResult& off = outputs[1].value;
  const VariantResult& chaos = outputs[2].value;

  int rc = 0;
  if (giga.split_events == 0) {
    std::cout << "FAIL: the storm never drove an incremental split\n";
    rc = 1;
  }
  if (off.fragment_events == 0 || off.max_event_moved == 0) {
    std::cout << "FAIL: the all-at-once baseline never hashed a directory\n";
    rc = 1;
  }
  // Property 1: incremental splits move one partition's share; the
  // all-at-once transition books the whole directory in one event.
  if (giga.max_event_moved >= off.max_event_moved) {
    std::cout << "FAIL: largest giga event moved " << giga.max_event_moved
              << " dentries, not less than the all-at-once "
              << off.max_event_moved << "\n";
    rc = 1;
  }
  // Property 2: the redirect rate decays to ~0 once the bitmap stops
  // changing (allow stragglers already in flight: 2% of the total).
  const std::uint64_t budget =
      std::max<std::uint64_t>(5, giga.redirects_total / 50);
  if (giga.redirects_total > 0 && giga.redirects_after_stable > budget) {
    std::cout << "FAIL: " << giga.redirects_after_stable << " of "
              << giga.redirects_total
              << " redirects arrived after the bitmap went stable\n";
    rc = 1;
  }
  // Chaos variant: the storm survives a mid-split MDS crash.
  if (chaos.split_events == 0 || chaos.tput <= 0.0) {
    std::cout << "FAIL: chaos variant did not keep splitting and serving\n";
    rc = 1;
  }

  if (rc == 0) {
    std::cout << "\nOK: splits moved at most " << giga.max_event_moved
              << " dentries per event (all-at-once: " << off.max_event_moved
              << "), and only " << giga.redirects_after_stable << "/"
              << giga.redirects_total
              << " redirects landed after the last bitmap change.\n";
  }
  std::cout << "CSV: " << csv_path("abl_giga_split") << "\n";
  return rc;
}
