// Repository benchmark binary.
//
//   mdsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (workloads.cc) on the sub-seeds of seed N: untraced
// rounds until they have measured S seconds, interleaved with traced runs
// (one per sub-seed, or one in all with --trace 1). Prints two JSON lines:
// a report (provenance, samples, latency percentiles, every check) and,
// last, the result line {correct, attempted, failed, metrics} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// `attempted` counts simulation runs and `failed` the runs that failed a
// correctness check; any failed check also makes the exit status nonzero.
// Only the simulator's public API is used.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/sharded_cluster.h"
#include "fstree/generator.h"
#include "unit_costs.h"
#include "workloads.h"

namespace {

using namespace mdsim;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- JSON output ----------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_num(v[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
           json_num(ms[i].value) + ", \"unit\": " + json_str(ms[i].unit) +
           "}";
  }
  return out + "}";
}

// ---- correctness checks ------------------------------------------------------

struct Checks {
  struct Entry {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> entries;

  void add(std::string name, bool ok, std::string detail) {
    if (!ok) std::cerr << "CHECK FAILED: " << name << ": " << detail << "\n";
    entries.push_back({std::move(name), ok, std::move(detail)});
  }
  bool all_ok() const {
    return std::all_of(entries.begin(), entries.end(),
                       [](const Entry& e) { return e.ok; });
  }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out += (i > 0 ? ", " : "") + std::string("{\"name\": ") +
             json_str(entries[i].name) +
             ", \"ok\": " + (entries[i].ok ? "true" : "false") +
             ", \"detail\": " + json_str(entries[i].detail) + "}";
    }
    return out + "]";
  }
};

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1e-300});
}

// ---- simulated outcome and trace statistics ----------------------------------

/// What the simulated cluster did after warm-up. Deterministic per seed:
/// every run of one configuration must produce the same values, traced or
/// not, at any thread count.
struct SimOutcome {
  std::uint64_t replies = 0;
  std::uint64_t failures = 0;
  double mds_tput = 0.0;
  double mean_latency_ms = 0.0;
  double hit_rate = 0.0;
  double prefix_frac = 0.0;
  double forward_frac = 0.0;

  bool operator==(const SimOutcome&) const = default;
  std::string str() const {
    return "replies=" + std::to_string(replies) +
           " failures=" + std::to_string(failures) +
           " mean_latency_ms=" + json_num(mean_latency_ms);
  }
};

SimOutcome outcome_of(const RunResult& r) {
  return {r.replies,  r.failures,        r.avg_mds_throughput,
          r.mean_latency_ms, r.hit_rate, r.prefix_fraction,
          r.forward_fraction};
}

/// TraceCollector histograms have 20 log buckets per decade (trace.cc).
constexpr double kBucketsPerDecade = 20.0;

/// LogHistogram::percentile reports the midpoint of the bucket holding the
/// rank, so it moves in ~12% steps. Recover the rank range that bucket
/// covers by bisecting on p, then place the rank log-linearly inside it.
double interpolated_percentile(const LogHistogram& h, double p) {
  const double mid = h.percentile(p);
  if (h.total_count() == 0 || mid <= 0.0) return mid;
  double lo = 0.0, hi = p;  // lowest p mapping to this bucket
  if (h.percentile(0.0) == mid) {
    hi = 0.0;
  } else {
    for (int i = 0; i < 60; ++i) {
      const double m = 0.5 * (lo + hi);
      (h.percentile(m) == mid ? hi : lo) = m;
    }
  }
  const double p_first = hi;
  lo = p;
  hi = 100.0;  // highest p mapping to this bucket
  if (h.percentile(100.0) == mid) {
    lo = 100.0;
  } else {
    for (int i = 0; i < 60; ++i) {
      const double m = 0.5 * (lo + hi);
      (h.percentile(m) == mid ? lo : hi) = m;
    }
  }
  const double p_last = lo;
  const double step = std::pow(10.0, 1.0 / kBucketsPerDecade);
  const double frac = p_last > p_first ? (p - p_first) / (p_last - p_first)
                                       : 0.5;
  return mid / std::sqrt(step) * std::pow(step, frac);
}

/// Percentiles shown in the report to describe the latency distribution.
constexpr std::array<double, 6> kReportPercentiles = {50.0, 90.0, 95.0,
                                                      99.0, 99.9, 99.99};

/// A traced run's (or several pooled runs') end-to-end latency histogram
/// and per-stage time, all ops together.
struct TraceStats {
  std::uint64_t completed = 0;
  std::uint64_t total_ns = 0;
  LogHistogram latency_ns;
  std::array<std::uint64_t, kNumTraceStages> stage_ns{};

  void merge(const TraceStats& o) {
    completed += o.completed;
    total_ns += o.total_ns;
    latency_ns.merge(o.latency_ns);
    for (std::size_t i = 0; i < stage_ns.size(); ++i) {
      stage_ns[i] += o.stage_ns[i];
    }
  }

  double percentile_ms(double p) const {
    return interpolated_percentile(latency_ns, p) / 1e6;
  }

  /// Segment tiling: the stage sums add up to the end-to-end totals.
  bool tiles() const {
    std::uint64_t sum = 0;
    for (std::uint64_t ns : stage_ns) sum += ns;
    return sum == total_ns;
  }

  double mean_ms(std::initializer_list<TraceStage> stages) const {
    std::uint64_t ns = 0;
    for (TraceStage s : stages) ns += stage_ns[static_cast<std::size_t>(s)];
    return completed > 0 ? static_cast<double>(ns) /
                               static_cast<double>(completed) / 1e6
                         : 0.0;
  }
};

TraceStats trace_stats(const TraceCollector& tr) {
  TraceStats t{tr.completed(), tr.grand_total_ns(),
               tr.total_hist(static_cast<OpType>(0)), {}};
  for (int op = 1; op < kNumOpTypes; ++op) {
    t.latency_ns.merge(tr.total_hist(static_cast<OpType>(op)));
  }
  for (int s = 0; s < kNumTraceStages; ++s) {
    for (int op = 0; op < kNumOpTypes; ++op) {
      t.stage_ns[static_cast<std::size_t>(s)] += tr.stage_total_ns(
          static_cast<TraceStage>(s), static_cast<OpType>(op));
    }
  }
  return t;
}

// ---- single-engine runs ---------------------------------------------------------

/// Cumulative counters of a ClusterSim, read between run_until calls.
struct ClusterCounters {
  SimTime now = 0;
  Simulation::Counters engine;
  std::uint64_t net_messages = 0;  // the cluster zeroes these at warm-up
  std::uint64_t net_dropped = 0;
  std::uint64_t dirfrag_gen = 0;
  std::vector<std::uint64_t> replies;  // per MDS
  std::vector<double> cpu_busy_s, store_busy_s, journal_busy_s;
  std::uint64_t replica_grants = 0, invalidations = 0;
  std::uint64_t migrations = 0, items_migrated = 0;
  std::uint64_t disk_reads = 0, journal_appends = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  std::uint64_t retries = 0, stale = 0, giga_redirects = 0;
};

ClusterCounters read_counters(ClusterSim& c) {
  ClusterCounters k;
  k.now = c.sim().now();
  k.engine = c.sim().counters();
  k.net_messages = c.network().total_messages();
  k.net_dropped = c.network().dropped_messages();
  k.dirfrag_gen = c.dirfrag().generation();
  for (int i = 0; i < c.num_mds(); ++i) {
    MdsNode& n = c.mds(i);
    const MdsStats& s = n.stats();
    k.replies.push_back(s.replies_sent);
    k.cpu_busy_s.push_back(to_seconds(n.cpu().busy_time()));
    k.store_busy_s.push_back(to_seconds(n.disk().store_busy_time()));
    // The journal device exposes utilization since construction only.
    k.journal_busy_s.push_back(n.disk().journal_utilization(k.now) *
                               to_seconds(k.now));
    k.replica_grants += s.replica_grants;
    k.invalidations += s.invalidations_sent;
    k.migrations += s.migrations_out;
    k.items_migrated += s.items_migrated_out;
    k.disk_reads += n.disk().reads();
    k.journal_appends += n.disk().journal_appends();
    k.cache_hits += n.cache().stats().hits;
    k.cache_misses += n.cache().stats().misses;
    k.evictions += n.cache().stats().evictions;
  }
  for (int i = 0; i < c.num_clients(); ++i) {
    const ClientStats& s = c.client(i).stats();
    k.retries += s.retries;
    k.stale += s.stale_replies;
    k.giga_redirects += s.giga_redirects;
  }
  return k;
}

struct LegacyRun {
  double setup_s = 0.0;     // construction + run_until(0)
  double run_wall_s = 0.0;  // construction to finished result
  double measured_s = 0.0;  // the post-warm-up stretch alone
  SimOutcome outcome;
  ClusterCounters warm, end;
  std::size_t pending_events = 0;
  std::uint64_t latency_count = 0;
  double latency_sum_s = 0.0;
  std::optional<TraceStats> trace;
  bool conserved = true;
  std::string conservation;
  std::uint64_t reissue_bound = 0;  // client timeouts + rejections
};

/// Client conservation over ClientStats: every issue is an op that settled
/// (ok or failed), the one op a closed-loop client may have in flight, or
/// a re-issue after a timeout or rejection.
void check_conservation(ClusterSim& c, LegacyRun& r) {
  std::uint64_t issued = 0, ok = 0, failed = 0, outstanding = 0;
  std::uint64_t reissue_bound = 0;
  for (int i = 0; i < c.num_clients(); ++i) {
    const ClientStats& s = c.client(i).stats();
    const std::uint64_t settled = s.ops_ok + s.ops_failed;
    const std::uint64_t bound = s.retries + s.rejected_replies;
    if (settled > s.ops_issued || s.ops_issued - settled > 1 + bound) {
      r.conserved = false;
    }
    issued += s.ops_issued;
    ok += s.ops_ok;
    failed += s.ops_failed;
    outstanding += s.ops_issued >= settled ? s.ops_issued - settled : 0;
    reissue_bound += bound;
  }
  r.reissue_bound = reissue_bound;
  r.conservation = "issued=" + std::to_string(issued) +
                   " ok=" + std::to_string(ok) +
                   " failed=" + std::to_string(failed) +
                   " in_flight_or_reissued=" + std::to_string(outstanding) +
                   " clients=" + std::to_string(c.num_clients()) +
                   " reissue_bound=" + std::to_string(reissue_bound);
}

LegacyRun run_legacy(const SimConfig& cfg) {
  LegacyRun r;
  const auto t0 = Clock::now();
  ClusterSim c(cfg);
  c.run_until(0);
  r.setup_s = seconds_since(t0);
  c.run_until(cfg.warmup);
  r.warm = read_counters(c);
  const auto t1 = Clock::now();
  c.run();
  r.measured_s = seconds_since(t1);
  r.run_wall_s = seconds_since(t0);

  Metrics& m = c.metrics();
  const Summary lat = m.client_latency();
  r.outcome = {m.total_replies(),       m.total_failures(),
               m.avg_mds_throughput(c.sim().now()),
               lat.mean() * 1e3,        m.cluster_hit_rate(),
               m.mean_prefix_fraction(), m.overall_forward_fraction()};
  r.latency_count = lat.count();
  r.latency_sum_s = lat.sum();
  r.end = read_counters(c);
  r.pending_events = c.sim().events_pending();
  if (c.tracer() != nullptr) r.trace = trace_stats(*c.tracer());
  check_conservation(c, r);
  return r;
}

// ---- parallel-engine runs ----------------------------------------------------------

struct ShardedRun {
  double wall_s = 0.0;  // construction to finished result
  SimOutcome outcome;
  std::vector<Simulation::Counters> shards;
  std::uint64_t cross_posts = 0;
  std::uint64_t remote_ops = 0;
  std::size_t pending_events = 0;  // summed over shards
  std::optional<TraceStats> trace;

  std::uint64_t fired() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.fired;
    return n;
  }
};

ShardedRun run_sharded(const SimConfig& cfg) {
  ShardedRun r;
  const auto t0 = Clock::now();
  ShardedClusterSim c(cfg);
  c.run();
  r.wall_s = seconds_since(t0);
  r.outcome = outcome_of(c.result());
  for (int s = 0; s < c.num_shards(); ++s) {
    r.shards.push_back(c.engine().shard(s).counters());
    r.pending_events += c.engine().shard(s).events_pending();
  }
  r.cross_posts = c.engine().cross_posts();
  r.remote_ops = c.remote_ops();
  if (c.tracer() != nullptr) r.trace = trace_stats(*c.tracer());
  return r;
}

/// Set-up time of the single engine alone: construction + run_until(0).
double legacy_setup_s(const SimConfig& cfg) {
  const auto t0 = Clock::now();
  ClusterSim c(cfg);
  c.run_until(0);
  return seconds_since(t0);
}

/// Set-up time of the parallel engine: a zero-horizon instance of the same
/// configuration (build, start, aggregate; no simulated time passes).
double sharded_setup_s(SimConfig cfg) {
  cfg.duration = 0;
  cfg.warmup = 0;
  const auto t0 = Clock::now();
  ShardedClusterSim c(cfg);
  c.run();
  return seconds_since(t0);
}

// ---- arguments ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double horizon_s = 0.0;    // 0: the workload's own duration
  double warmup_s = -1.0;    // < 0: the workload's own warm-up
  std::string source_id = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << key << "\n";
      return std::nullopt;
    }
    const std::string v = argv[i + 1];
    try {
      if (key == "--workload") a.workload = v;
      else if (key == "--seed") a.seed = std::stoull(v);
      else if (key == "--seconds") a.seconds = std::stod(v);
      else if (key == "--trace") a.trace = std::stoi(v) != 0;
      else if (key == "--horizon-s") a.horizon_s = std::stod(v);
      else if (key == "--warmup-s") a.warmup_s = std::stod(v);
      else if (key == "--source-id") a.source_id = v;
      else {
        std::cerr << "unknown flag " << key << "\n";
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": " << v << "\n";
      return std::nullopt;
    }
  }
  if (a.workload.empty()) {
    std::cerr << "--workload is required\n";
    return std::nullopt;
  }
  return a;
}

/// Worker threads of the parallel engine: min(4, hardware threads).
int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// ---- metrics -------------------------------------------------------------------------

/// Minimum set-up samples per invocation.
constexpr int kSetupSamples = 9;

/// Value reported for a per-layer metric the parallel engine's public API
/// does not expose (per-MDS, network and client internals).
constexpr double kNotExposed = -1.0;

/// What the untraced rounds measured: the wall sample vectors hold one
/// value per run, `setup_s` extra samples too.
struct Measured {
  std::vector<double> setup_s, run_wall_s, ops_per_wall_s;
  double rss_mb = 0.0;
  std::vector<SimOutcome> outcome;  // per sub-seed, repeated by its runs
};

std::vector<Metric> end_to_end(const Measured& m, const TraceStats& pooled) {
  std::uint64_t replies = 0, failures = 0;
  double tput = 0.0;
  for (const SimOutcome& o : m.outcome) {
    replies += o.replies;
    failures += o.failures;
    tput += o.mds_tput;
  }
  return {
      {"ops_per_wall_s", median(m.ops_per_wall_s), "1/s"},
      {"run_wall_s", median(m.run_wall_s), "s"},
      {"setup_s", median(m.setup_s), "s"},
      {"peak_rss_mb", m.rss_mb, "MB"},
      {"sim_mds_tput", tput / static_cast<double>(m.outcome.size()), "ops/s"},
      {"sim_lat_p50_ms", pooled.percentile_ms(50.0), "ms"},
      {"sim_lat_p999_ms", pooled.percentile_ms(99.9), "ms"},
      {"sim_ok_frac",
       1.0 - ratio(static_cast<double>(failures), static_cast<double>(replies)),
       "ratio"},
  };
}

/// Layer figures every workload reports the same way: trace stage means,
/// the client tail and the cluster-wide ratios in RunResult.
void add_common_layers(std::vector<Metric>& out, const SimOutcome& o,
                       const TraceStats& t) {
  using S = TraceStage;
  out.push_back({"net.request_ms", t.mean_ms({S::kNetRequest}), "ms"});
  out.push_back({"net.forward_ms", t.mean_ms({S::kNetForward}), "ms"});
  out.push_back({"net.reply_ms", t.mean_ms({S::kNetReply}), "ms"});
  out.push_back({"mds.forward_frac", o.forward_frac, "ratio"});
  out.push_back({"mds.cpu_queue_ms", t.mean_ms({S::kCpuQueue}), "ms"});
  out.push_back({"mds.cpu_service_ms", t.mean_ms({S::kCpuService}), "ms"});
  out.push_back({"mds.stall_ms", t.mean_ms({S::kStallWait}), "ms"});
  out.push_back({"cache.hit_rate", o.hit_rate, "ratio"});
  out.push_back({"cache.prefix_frac", o.prefix_frac, "ratio"});
  out.push_back({"cache.fetch_wait_ms", t.mean_ms({S::kFetchWait}), "ms"});
  out.push_back({"storage.journal_ms",
                 t.mean_ms({S::kJournalQueue, S::kJournalService}), "ms"});
  out.push_back({"storage.disk_ms",
                 t.mean_ms({S::kDiskQueue, S::kDiskService}), "ms"});
  out.push_back({"client.lat_p99_ms", t.percentile_ms(99.0), "ms"});
}

struct SetupLayer {
  double generate_s = 0.0;
  std::uint64_t items = 0;
};

/// Times generate_namespace on the workload's whole namespace (for the
/// parallel engine, one tree as large as all shards together) and keeps
/// the tree for the cache unit cost.
SetupLayer time_generate(const SimConfig& cfg, FsTree& tree) {
  const auto t0 = Clock::now();
  generate_namespace(tree, cfg.fs);
  return {seconds_since(t0), tree.node_count()};
}

void add_setup_layer(std::vector<Metric>& out, const SetupLayer& s) {
  out.push_back({"setup.generate_s", s.generate_s, "s"});
  out.push_back({"setup.namespace_items", static_cast<double>(s.items),
                 "count"});
}

std::size_t cache_capacity(const SimConfig& cfg, const FsTree& tree) {
  if (cfg.cache_fraction <= 0.0) return cfg.mds.cache_capacity;
  return std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(tree.node_count()) *
                                   cfg.cache_fraction / cfg.num_mds));
}

/// Per-layer metrics of the single engine. Counts come from sub-seed 0's
/// traced run; wall-based figures are medians over every untraced run,
/// each against its own post-warm-up counts and wall time.
std::vector<Metric> legacy_layers(const SimConfig& cfg,
                                  const std::vector<std::vector<LegacyRun>>& untraced,
                                  const LegacyRun& traced,
                                  std::uint64_t seed) {
  const ClusterCounters& a = traced.warm;
  const ClusterCounters& b = traced.end;
  const double ops = static_cast<double>(traced.outcome.replies);
  const auto per_op = [ops](std::uint64_t n) {
    return ratio(static_cast<double>(n), ops);
  };
  const double span_s = to_seconds(b.now - a.now);

  double max_replies = 0.0, sum_replies = 0.0;
  double cpu_max = 0.0, disk_max = 0.0, journal_max = 0.0;
  for (std::size_t i = 0; i < b.replies.size(); ++i) {
    const double rep = static_cast<double>(b.replies[i] - a.replies[i]);
    max_replies = std::max(max_replies, rep);
    sum_replies += rep;
    cpu_max = std::max(cpu_max, (b.cpu_busy_s[i] - a.cpu_busy_s[i]) / span_s);
    disk_max =
        std::max(disk_max, (b.store_busy_s[i] - a.store_busy_s[i]) / span_s);
    journal_max = std::max(
        journal_max, (b.journal_busy_s[i] - a.journal_busy_s[i]) / span_s);
  }
  const double mean_replies =
      sum_replies / static_cast<double>(b.replies.size());

  // Outside-in unit costs on inputs shaped like sub-seed 0.
  FsTree tree;
  const SetupLayer setup = time_generate(cfg, tree);
  const double sim_ns = sim_event_ns(traced.pending_events, seed);
  const double cache_ns = cache_lookup_ns(tree, cache_capacity(cfg, tree),
                                          traced.outcome.hit_rate, seed);
  const double net_ns =
      net_message_ns(cfg.net, cfg.num_mds, cfg.num_clients, seed);

  std::vector<double> ns_per_event, sim_share, cache_share, net_share;
  for (const auto& runs : untraced) {
    for (const LegacyRun& r : runs) {
      const double wall_ns = r.measured_s * 1e9;
      const auto fired =
          static_cast<double>(r.end.engine.fired - r.warm.engine.fired);
      const auto lookups = static_cast<double>(
          (r.end.cache_hits - r.warm.cache_hits) +
          (r.end.cache_misses - r.warm.cache_misses));
      ns_per_event.push_back(ratio(wall_ns, fired));
      sim_share.push_back(ratio(sim_ns * fired, wall_ns));
      cache_share.push_back(ratio(cache_ns * lookups, wall_ns));
      net_share.push_back(ratio(
          net_ns * static_cast<double>(r.end.net_messages), wall_ns));
    }
  }
  std::vector<double> walls0;
  for (const LegacyRun& r : untraced[0]) walls0.push_back(r.run_wall_s);

  const std::uint64_t fired = b.engine.fired - a.engine.fired;
  std::vector<Metric> out;
  out.push_back({"sim.events_per_op", per_op(fired), "count/op"});
  out.push_back(
      {"sim.cancel_frac",
       ratio(static_cast<double>(b.engine.cancelled - a.engine.cancelled),
             static_cast<double>(b.engine.scheduled - a.engine.scheduled)),
       "ratio"});
  out.push_back({"sim.heap_fallbacks",
                 static_cast<double>(b.engine.task_heap_fallbacks -
                                     a.engine.task_heap_fallbacks),
                 "count"});
  out.push_back({"sim.wall_ns_per_event", median(ns_per_event), "ns"});
  // A single engine is one shard on one thread.
  out.push_back({"sharded.parallel_eff", 1.0, "ratio"});
  out.push_back({"sharded.shard_imbalance", 1.0, "ratio"});
  out.push_back({"sharded.cross_posts_per_op", 0.0, "count/op"});
  out.push_back({"sharded.remote_ops_per_op", 0.0, "count/op"});
  out.push_back({"net.msgs_per_op", per_op(b.net_messages), "count/op"});
  out.push_back({"net.dropped", static_cast<double>(b.net_dropped), "count"});
  out.push_back({"mds.load_imbalance", ratio(max_replies, mean_replies),
                 "ratio"});
  out.push_back({"mds.cpu_util_max", cpu_max, "ratio"});
  out.push_back({"mds.migrations",
                 static_cast<double>(b.migrations - a.migrations), "count"});
  out.push_back({"mds.items_migrated",
                 static_cast<double>(b.items_migrated - a.items_migrated),
                 "count"});
  out.push_back({"mds.dirfrag_transitions",
                 static_cast<double>(b.dirfrag_gen - a.dirfrag_gen), "count"});
  out.push_back({"mds.replica_grants_per_op",
                 per_op(b.replica_grants - a.replica_grants), "count/op"});
  out.push_back({"mds.invalidations_per_op",
                 per_op(b.invalidations - a.invalidations), "count/op"});
  out.push_back({"cache.evictions_per_op", per_op(b.evictions - a.evictions),
                 "count/op"});
  out.push_back({"storage.journal_appends_per_op",
                 per_op(b.journal_appends - a.journal_appends), "count/op"});
  out.push_back({"storage.journal_util", journal_max, "ratio"});
  out.push_back({"storage.disk_reads_per_op",
                 per_op(b.disk_reads - a.disk_reads), "count/op"});
  out.push_back({"storage.disk_util", disk_max, "ratio"});
  out.push_back({"client.retries_per_op", per_op(b.retries - a.retries),
                 "count/op"});
  out.push_back({"client.stale_per_op", per_op(b.stale - a.stale),
                 "count/op"});
  out.push_back({"client.giga_redirects_per_op",
                 per_op(b.giga_redirects - a.giga_redirects), "count/op"});
  add_common_layers(out, traced.outcome, *traced.trace);
  add_setup_layer(out, setup);
  out.push_back({"trace_overhead",
                 ratio(traced.run_wall_s, median(walls0)) - 1.0, "ratio"});
  out.push_back({"sim.unit_ns", sim_ns, "ns"});
  out.push_back({"cache.unit_ns", cache_ns, "ns"});
  out.push_back({"net.unit_ns", net_ns, "ns"});
  out.push_back({"sim.wall_share", median(sim_share), "ratio"});
  out.push_back({"cache.wall_share", median(cache_share), "ratio"});
  out.push_back({"net.wall_share", median(net_share), "ratio"});
  return out;
}

/// Sub-seed 0 runs behind the parallel engine's per-layer metrics.
struct ShardedLayerRuns {
  ShardedRun traced_t1;        // tracing on, one thread
  ShardedRun untraced_t1;      // parallel-efficiency and overhead baseline
  ShardedRun warm;             // same config stopped at warm-up
  std::vector<double> tn_wall;  // the untraced runs at the bench threads
  double setup_s = 0.0;
};

std::vector<Metric> sharded_layers(const SimConfig& cfg,
                                   const ShardedLayerRuns& runs,
                                   std::uint64_t seed) {
  const ShardedRun& t = runs.traced_t1;
  const double ops = static_cast<double>(t.outcome.replies);
  const std::uint64_t fired = t.fired() - runs.warm.fired();
  std::uint64_t cancelled = 0, scheduled = 0, fallbacks = 0;
  double max_events = 0.0;
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    cancelled += t.shards[s].cancelled - runs.warm.shards[s].cancelled;
    scheduled += t.shards[s].scheduled - runs.warm.shards[s].scheduled;
    fallbacks += t.shards[s].task_heap_fallbacks -
                 runs.warm.shards[s].task_heap_fallbacks;
    max_events = std::max(max_events, static_cast<double>(t.shards[s].fired));
  }
  const double mean_events =
      static_cast<double>(t.fired()) / static_cast<double>(t.shards.size());
  const double t1_sim_wall = runs.untraced_t1.wall_s - runs.setup_s;

  std::vector<Metric> out;
  out.push_back({"sim.events_per_op", ratio(static_cast<double>(fired), ops),
                 "count/op"});
  out.push_back({"sim.cancel_frac",
                 ratio(static_cast<double>(cancelled),
                       static_cast<double>(scheduled)),
                 "ratio"});
  out.push_back({"sim.heap_fallbacks", static_cast<double>(fallbacks),
                 "count"});
  out.push_back({"sim.wall_ns_per_event",
                 ratio(t1_sim_wall * 1e9, static_cast<double>(t.fired())),
                 "ns"});
  out.push_back({"sharded.parallel_eff",
                 ratio(runs.untraced_t1.wall_s, median(runs.tn_wall)) /
                     cfg.threads,
                 "ratio"});
  out.push_back({"sharded.shard_imbalance", ratio(max_events, mean_events),
                 "ratio"});
  out.push_back(
      {"sharded.cross_posts_per_op",
       ratio(static_cast<double>(t.cross_posts - runs.warm.cross_posts), ops),
       "count/op"});
  out.push_back(
      {"sharded.remote_ops_per_op",
       ratio(static_cast<double>(t.remote_ops - runs.warm.remote_ops), ops),
       "count/op"});
  for (const Metric& hidden : std::initializer_list<Metric>{
           {"net.msgs_per_op", kNotExposed, "count/op"},
           {"net.dropped", kNotExposed, "count"},
           {"mds.load_imbalance", kNotExposed, "ratio"},
           {"mds.cpu_util_max", kNotExposed, "ratio"},
           {"mds.migrations", kNotExposed, "count"},
           {"mds.items_migrated", kNotExposed, "count"},
           {"mds.dirfrag_transitions", kNotExposed, "count"},
           {"mds.replica_grants_per_op", kNotExposed, "count/op"},
           {"mds.invalidations_per_op", kNotExposed, "count/op"},
           {"cache.evictions_per_op", kNotExposed, "count/op"},
           {"storage.journal_appends_per_op", kNotExposed, "count/op"},
           {"storage.journal_util", kNotExposed, "ratio"},
           {"storage.disk_reads_per_op", kNotExposed, "count/op"},
           {"storage.disk_util", kNotExposed, "ratio"},
           {"client.retries_per_op", kNotExposed, "count/op"},
           {"client.stale_per_op", kNotExposed, "count/op"},
           {"client.giga_redirects_per_op", kNotExposed, "count/op"},
           {"cache.wall_share", kNotExposed, "ratio"},
           {"net.wall_share", kNotExposed, "ratio"}}) {
    out.push_back(hidden);
  }
  add_common_layers(out, t.outcome, *t.trace);

  FsTree tree;
  add_setup_layer(out, time_generate(cfg, tree));
  out.push_back({"trace_overhead",
                 ratio(t.wall_s, runs.untraced_t1.wall_s) - 1.0, "ratio"});

  const double sim_ns =
      sim_event_ns(t.pending_events / t.shards.size(), seed);
  // The mean shard's cache and fabric, for the unit costs alone.
  SimConfig shard_cfg = cfg;
  shard_cfg.num_mds = cfg.num_mds / cfg.shards;
  const double cache_ns =
      cache_lookup_ns(tree, cache_capacity(shard_cfg, tree),
                      t.outcome.hit_rate, seed);
  const double net_ns = net_message_ns(cfg.net, shard_cfg.num_mds,
                                       cfg.num_clients / cfg.shards, seed);
  out.push_back({"sim.unit_ns", sim_ns, "ns"});
  out.push_back({"cache.unit_ns", cache_ns, "ns"});
  out.push_back({"net.unit_ns", net_ns, "ns"});
  out.push_back({"sim.wall_share",
                 ratio(sim_ns * static_cast<double>(t.fired()),
                       t1_sim_wall * 1e9),
                 "ratio"});
  return out;
}

std::string sub(int k) { return "sub-seed " + std::to_string(k) + ": "; }

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) return 2;
  const Args& args = *parsed;
  const int threads = bench_threads();
  constexpr int K = kSubSeeds;
  std::vector<SimConfig> cfgs;
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < K; ++k) {
    seeds.push_back(subseed(args.seed, k));
    std::optional<SimConfig> cfg =
        make_workload(args.workload, seeds.back(), threads);
    if (!cfg) {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
    if (args.horizon_s > 0.0) cfg->duration = from_seconds(args.horizon_s);
    if (args.warmup_s >= 0.0) cfg->warmup = from_seconds(args.warmup_s);
    cfgs.push_back(*cfg);
  }
  const bool sharded = cfgs[0].shards > 1;

  Checks checks;
  Measured m;
  int runs = 0;
  int failed_runs = 0;
  const auto tally = [&](bool ok) {
    ++runs;
    failed_runs += ok ? 0 : 1;
  };

  // --- untraced rounds: the end-to-end wall metrics ---------------------------
  // A round runs every sub-seed once; every run repeats the simulated
  // results of its sub-seed's first run.
  std::vector<std::vector<LegacyRun>> legacy(static_cast<std::size_t>(K));
  std::vector<std::vector<ShardedRun>> par(static_cast<std::size_t>(K));
  int unrepeated = 0;
  const auto untraced_round = [&]() {
    for (int k = 0; k < K; ++k) {
      const SimConfig& cfg = cfgs[static_cast<std::size_t>(k)];
      bool same = true;
      bool conserved = true;
      double wall = 0.0;
      std::uint64_t replies = 0;
      if (sharded) {
        m.setup_s.push_back(sharded_setup_s(cfg));
        tally(true);
        auto& done = par[static_cast<std::size_t>(k)];
        ShardedRun r = run_sharded(cfg);
        wall = r.wall_s;
        replies = r.outcome.replies;
        same = done.empty() || (r.outcome == done[0].outcome &&
                                r.fired() == done[0].fired());
        done.push_back(std::move(r));
      } else {
        auto& done = legacy[static_cast<std::size_t>(k)];
        LegacyRun r = run_legacy(cfg);
        m.setup_s.push_back(r.setup_s);
        wall = r.run_wall_s;
        replies = r.outcome.replies;
        same = done.empty() ||
               (r.outcome == done[0].outcome &&
                r.end.engine.fired == done[0].end.engine.fired);
        conserved = r.conserved;
        if (!conserved) {
          checks.add("conservation", false, sub(k) + r.conservation);
        }
        done.push_back(std::move(r));
      }
      m.run_wall_s.push_back(wall);
      m.ops_per_wall_s.push_back(static_cast<double>(replies) / wall);
      unrepeated += same ? 0 : 1;
      tally(same && conserved);
    }
  };

  // --- traced runs: latency percentiles, reconciliation, layer counts ---------
  // End-to-end mode traces every sub-seed and pools the histograms;
  // per-layer mode traces sub-seed 0 alone.
  std::optional<TraceStats> pooled;
  std::optional<LegacyRun> legacy_traced;
  ShardedLayerRuns lr;
  const auto traced_run = [&](int k) {
    const auto i = static_cast<std::size_t>(k);
    SimConfig traced_cfg = cfgs[i];
    traced_cfg.trace.enabled = true;
    TraceStats trace;
    double traced_mean_ms = 0.0;
    double untraced_mean_ms = 0.0;
    if (sharded) {
      // The per-layer traced run uses one thread, the end-to-end one the
      // bench thread count; either way it must repeat the untraced runs.
      const ShardedRun& ref = par[i][0];
      if (args.trace) traced_cfg.threads = 1;
      lr.traced_t1 = run_sharded(traced_cfg);
      const ShardedRun& t = lr.traced_t1;
      trace = *t.trace;
      traced_mean_ms = t.outcome.mean_latency_ms;
      untraced_mean_ms = ref.outcome.mean_latency_ms;
      const bool same = t.outcome == ref.outcome && t.fired() == ref.fired() &&
                        t.cross_posts == ref.cross_posts;
      checks.add("threads_invariant", same,
                 sub(k) + "traced t" + std::to_string(traced_cfg.threads) +
                     " " + t.outcome.str() + " vs untraced t" +
                     std::to_string(threads) + " " + ref.outcome.str());
      // Cross-shard turns are never traced (the collector is shard-local)
      // but do enter the client latency mean, so only the tiling is exact.
      const bool reconciles = trace.tiles() && trace.completed > 0;
      checks.add("trace_reconciles", reconciles,
                 sub(k) + std::to_string(trace.completed) +
                     " traced local ops; stage sums tile their latencies");
      tally(same && reconciles);
      if (args.trace) {
        SimConfig t1 = cfgs[i];
        t1.threads = 1;
        lr.untraced_t1 = run_sharded(t1);
        const bool t1_same = lr.untraced_t1.outcome == ref.outcome &&
                             lr.untraced_t1.fired() == ref.fired();
        checks.add("threads_invariant_untraced", t1_same,
                   sub(k) + "untraced t1 " + lr.untraced_t1.outcome.str());
        tally(t1_same);
        SimConfig warm = cfgs[i];
        warm.duration = warm.warmup;
        lr.warm = run_sharded(warm);
        tally(true);
      }
    } else {
      const LegacyRun& ref = legacy[i][0];
      LegacyRun t = run_legacy(traced_cfg);
      trace = *t.trace;
      traced_mean_ms = t.outcome.mean_latency_ms;
      untraced_mean_ms = ref.outcome.mean_latency_ms;
      checks.add("conservation", t.conserved, sub(k) + t.conservation);
      const bool same = t.outcome == ref.outcome &&
                        t.end.engine.fired == ref.end.engine.fired;
      checks.add("traced_matches_untraced", same,
                 sub(k) + "traced " + t.outcome.str() + " vs untraced " +
                     ref.outcome.str());
      // The trace times an op from its first issue and charges a
      // re-issue's wait to stall_wait; the client times it from its last
      // issue. So the totals match exactly only when no client re-issued.
      const double trace_s = static_cast<double>(trace.total_ns) / 1e9;
      const bool totals_ok =
          t.reissue_bound == 0 ? close_rel(trace_s, t.latency_sum_s, 1e-6)
                               : trace_s >= t.latency_sum_s * (1.0 - 1e-6);
      const bool reconciles = trace.tiles() &&
                              trace.completed == t.latency_count && totals_ok;
      checks.add("trace_reconciles", reconciles,
                 sub(k) + std::to_string(trace.completed) + " traced ops, " +
                     json_num(trace_s) + " s vs " +
                     std::to_string(t.latency_count) + " client ops, " +
                     json_num(t.latency_sum_s) + " s, re-issue bound " +
                     std::to_string(t.reissue_bound));
      tally(t.conserved && same && reconciles);
      legacy_traced = std::move(t);
    }
    checks.add("latency_mean_agrees",
               close_rel(traced_mean_ms, untraced_mean_ms, 1e-12),
               sub(k) + "traced " + json_num(traced_mean_ms) +
                   " ms vs untraced " + json_num(untraced_mean_ms) + " ms");
    if (pooled) pooled->merge(trace);
    else pooled = std::move(trace);
  };

  // Set-up is short next to a run, so extra samples (beyond one per
  // untraced run) feed its median.
  const auto setup_sample = [&](int k) {
    const SimConfig& cfg = cfgs[static_cast<std::size_t>(k)];
    m.setup_s.push_back(sharded ? sharded_setup_s(cfg) : legacy_setup_s(cfg));
    tally(true);
  };

  // Traced runs and extra set-up samples are interleaved with the untraced
  // rounds, so the wall samples of one invocation spread over all of it: a
  // shared host's speed drifts over tens of seconds. The untraced rounds
  // continue until they have measured --seconds.
  const int traced_runs = args.trace ? 1 : K;
  double untraced_s = 0.0;
  for (int round = 0, traced = 0;
       round == 0 || untraced_s < args.seconds || traced < traced_runs;) {
    if (round == 0 || untraced_s < args.seconds) {
      const auto t0 = Clock::now();
      untraced_round();
      untraced_s += seconds_since(t0);
      ++round;
    }
    if (traced < traced_runs) {
      traced_run(traced++);
      for (int k = 0; k < K; ++k) setup_sample(k);
    }
  }
  for (int k = 0; static_cast<int>(m.setup_s.size()) < kSetupSamples;
       k = (k + 1) % K) {
    setup_sample(k);
  }
  m.rss_mb = peak_rss_mb();
  for (int k = 0; k < K; ++k) {
    const auto i = static_cast<std::size_t>(k);
    m.outcome.push_back(sharded ? par[i][0].outcome : legacy[i][0].outcome);
    checks.add("progress", m.outcome.back().replies > 0,
               sub(k) + std::to_string(m.outcome.back().replies) +
                   " replies after warm-up");
  }
  checks.add("repeatable", unrepeated == 0,
             std::to_string(unrepeated) + " of " +
                 std::to_string(m.run_wall_s.size()) +
                 " untraced runs differ from their sub-seed's first");

  std::vector<Metric> layers;
  if (args.trace && sharded) {
    for (const ShardedRun& r : par[0]) lr.tn_wall.push_back(r.wall_s);
    lr.setup_s = median(m.setup_s);
    layers = sharded_layers(cfgs[0], lr, seeds[0]);
  } else if (args.trace) {
    layers = legacy_layers(cfgs[0], legacy, *legacy_traced, seeds[0]);
  }

  const std::vector<Metric> result =
      args.trace ? layers : end_to_end(m, *pooled);
  const bool correct = checks.all_ok();

  std::vector<double> percentiles;
  for (double p : kReportPercentiles) {
    percentiles.push_back(pooled->percentile_ms(p));
  }
  const SimConfig& cfg = cfgs[0];
  std::cout << "{\"report\": {"
            << "\"workload\": " << json_str(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"sub_seeds\": " << seeds.size()
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"threads\": " << (sharded ? threads : 1)
            << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
            << ", \"source\": " << json_str(args.source_id)
            << ", \"num_mds\": " << cfg.num_mds
            << ", \"num_clients\": " << cfg.num_clients
            << ", \"shards\": " << cfg.shards
            << ", \"horizon_s\": " << json_num(to_seconds(cfg.duration))
            << ", \"warmup_s\": " << json_num(to_seconds(cfg.warmup))
            << ", \"window_s\": " << json_num(args.seconds)
            << ", \"run_wall_s\": " << json_list(m.run_wall_s)
            << ", \"setup_s\": " << json_list(m.setup_s)
            << ", \"latency_percentiles\": " << json_list(
                   std::vector<double>(kReportPercentiles.begin(),
                                       kReportPercentiles.end()))
            << ", \"latency_ms\": " << json_list(percentiles)
            << ", \"checks\": " << checks.json() << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << runs
            << ", \"failed\": " << std::max(failed_runs, correct ? 0 : 1)
            << ", \"metrics\": " << json_metrics(result) << "}" << std::endl;
  return correct ? 0 : 1;
}
