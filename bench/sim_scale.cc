// Simulation-engine scale ladder: sharded parallel core vs the monolithic
// engine, from the fig2-style 12 k-client shape up to a million clients.
//
// Not a paper figure — this measures the *simulator*, not the simulated
// system. Each rung runs the same dense configuration at a different
// client count / thread count and reports wall-clock, simulated events,
// and throughput (simulated ops per wall-second). Emits a
// google-benchmark-compatible JSON (BENCH_sim_scale.json, usable with
// tools/bench_compare.py) and a determinism CSV: the CSV carries only
// simulation-derived values, so two runs of the same rung — at any two
// thread counts, batching on or off — must produce byte-identical rows.
//
// Flags:
//   --quick          CI shape: 2 400 / 24 000 clients, short horizon
//   --ladder         all rungs (default runs the 12 k baseline rungs only)
//   --threads=N,M    thread sweep for the sharded rungs (default 1)
//   --no-legacy      skip the monolithic engine rung
//   --no-batching    disable same-destination delivery batching
//   --tag=NAME       suffix for the CSV file name
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/sharded_cluster.h"

using namespace mdsim;
using namespace mdsim::bench;

namespace {

struct Timing {
  std::string name;
  double wall_ms = 0.0;
  RunResult result;
  std::uint64_t events = 0;
  std::uint64_t cross_posts = 0;
  /// Simulated client operations completed per wall-clock second: the
  /// ladder's figure of merit (events/s flatters rungs with more
  /// bookkeeping traffic; replies/s is what the user of the simulator
  /// actually waits for).
  double ops_per_wall_sec() const {
    const double secs = wall_ms / 1e3;
    return secs > 0 ? static_cast<double>(result.replies) / secs : 0.0;
  }
};

/// One rung of the ladder: fig2 shape at n = 8 MDS per shard, client
/// population and horizon scaled. Bigger rungs run shorter simulated
/// horizons — the point is wall-clock per simulated op at scale, not a
/// long steady state.
SimConfig rung_config(int clients, int shards, int threads,
                      SimTime duration, SimTime warmup, bool batching) {
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 8);
  cfg.num_clients = clients;
  cfg.duration = duration;
  cfg.warmup = warmup;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.net.delivery_batching = batching;
  return cfg;
}

Timing run_legacy(const SimConfig& cfg, const std::string& name) {
  Timing t;
  t.name = name;
  const auto t0 = std::chrono::steady_clock::now();
  ClusterSim cluster(cfg);
  cluster.run();
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  t.result = summarize(cfg, {&cluster.metrics()}, cluster.sim().now());
  t.events = cluster.sim().events_executed();
  return t;
}

Timing run_sharded(const SimConfig& cfg, const std::string& name) {
  Timing t;
  t.name = name;
  const auto t0 = std::chrono::steady_clock::now();
  ShardedClusterSim cluster(cfg);
  cluster.run();
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  t.result = cluster.result();
  t.events = cluster.engine().events_executed();
  t.cross_posts = cluster.engine().cross_posts();
  return t;
}

void csv_row(CsvWriter& csv, const Timing& t) {
  // Simulation-derived values only: wall-clock never enters the CSV, so
  // the file is a pure function of the simulation and must be
  // byte-identical across thread counts and invocations.
  csv.field(t.name)
      .field(std::int64_t{t.result.config.shards})
      .field(std::int64_t{t.result.config.num_clients})
      .field(t.result.avg_mds_throughput)
      .field(t.result.hit_rate)
      .field(t.result.forward_fraction)
      .field(t.result.mean_latency_ms)
      .field(t.result.replies)
      .field(t.result.failures)
      .field(t.events)
      .field(t.cross_posts);
  csv.end_row();
}

void json_row(std::ofstream& out, const Timing& t, bool last) {
  const double secs = t.wall_ms / 1e3;
  out << "    {\n"
      << "      \"name\": \"BM_SimScale/" << t.name << "\",\n"
      << "      \"run_name\": \"BM_SimScale/" << t.name << "\",\n"
      << "      \"run_type\": \"iteration\",\n"
      << "      \"iterations\": 1,\n"
      << "      \"real_time\": " << t.wall_ms << ",\n"
      << "      \"cpu_time\": " << t.wall_ms << ",\n"
      << "      \"time_unit\": \"ms\",\n"
      << "      \"items_per_second\": "
      << (secs > 0 ? static_cast<double>(t.events) / secs : 0.0) << ",\n"
      << "      \"ops_per_wall_sec\": " << t.ops_per_wall_sec() << ",\n"
      << "      \"clients\": " << t.result.config.num_clients << ",\n"
      << "      \"shards\": " << t.result.config.shards << ",\n"
      << "      \"threads\": " << t.result.config.threads << ",\n"
      << "      \"replies\": " << t.result.replies << ",\n"
      << "      \"events\": " << t.events << ",\n"
      << "      \"cross_posts\": " << t.cross_posts << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

void announce(const Timing& t) {
  std::cout << "  [" << t.name << "] " << fmt_double(t.wall_ms, 0)
            << " ms wall, " << t.events << " events, " << t.result.replies
            << " replies";
  if (t.cross_posts != 0) std::cout << ", " << t.cross_posts << " cross-shard";
  std::cout << ", " << fmt_double(t.ops_per_wall_sec(), 0) << " ops/wall-s\n";
}

std::vector<int> parse_threads(const std::string& list) {
  std::vector<int> out;
  std::stringstream ss(list);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int v = std::atoi(tok.c_str());
    if (v >= 1) out.push_back(v);
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Simulation scale ladder — sharded engine vs monolithic",
         "engine benchmark (DESIGN.md section 5f/5g); not a paper figure");

  bool quick = false;
  bool ladder = false;
  bool skip_legacy = false;
  bool batching = true;
  std::vector<int> threads{1};
  std::string tag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--ladder") ladder = true;
    else if (arg == "--no-legacy") skip_legacy = true;
    else if (arg == "--no-batching") batching = false;
    else if (arg.rfind("--threads=", 0) == 0)
      threads = parse_threads(arg.substr(10));
    else if (arg.rfind("--tag=", 0) == 0) tag = arg.substr(6);
  }

  const std::string csv_name = tag.empty() ? "sim_scale" : "sim_scale_" + tag;
  CsvWriter csv(csv_path(csv_name), /*echo_stdout=*/false);
  csv.header({"mode", "shards", "clients", "avg_mds_throughput_ops",
              "hit_rate", "forward_fraction", "mean_latency_ms", "replies",
              "failures", "events", "cross_posts"});

  std::vector<Timing> rows;

  // Baseline rungs: the original 12 k-client shape (2 400 under --quick),
  // legacy engine then sharded at each requested thread count. These rung
  // names are stable across PRs — bench_compare.py diffs them against the
  // committed BENCH_sim_scale.json.
  const int base_clients = quick ? 2400 : 12000;
  const SimTime base_dur = quick ? 3 * kSecond : 6 * kSecond;
  const SimTime base_warm = quick ? kSecond : 2 * kSecond;

  if (!skip_legacy) {
    std::cout << "  [legacy_monolithic] running...\n";
    rows.push_back(run_legacy(
        rung_config(base_clients, 1, 1, base_dur, base_warm, batching),
        "legacy_monolithic"));
    announce(rows.back());
  }
  for (int t : threads) {
    const std::string name = "sharded_x8_t" + std::to_string(t);
    std::cout << "  [" << name << "] running...\n";
    rows.push_back(run_sharded(
        rung_config(base_clients, 8, t, base_dur, base_warm, batching),
        name));
    announce(rows.back());
  }

  // Ladder rungs: 10x and ~100x the baseline population on shorter
  // horizons (the figure of merit is wall-clock per simulated op, not
  // steady-state length). Quick mode climbs one decade for CI; the full
  // ladder tops out at a million clients.
  if (ladder) {
    struct Rung {
      int clients;
      SimTime duration;
      SimTime warmup;
    };
    std::vector<Rung> rungs;
    if (quick) {
      rungs.push_back({24000, kSecond, kSecond / 4});
    } else {
      rungs.push_back({120000, 2 * kSecond, kSecond / 2});
      rungs.push_back({1000000, kSecond / 2, kSecond / 8});
    }
    for (const Rung& r : rungs) {
      for (int t : threads) {
        const std::string name = "sharded_x8_t" + std::to_string(t) + "_c" +
                                 std::to_string(r.clients);
        std::cout << "  [" << name << "] running...\n";
        rows.push_back(run_sharded(
            rung_config(r.clients, 8, t, r.duration, r.warmup, batching),
            name));
        announce(rows.back());
      }
    }
  }

  for (const Timing& t : rows) csv_row(csv, t);

  // The JSON is only rewritten by full (non-quick, batching-on) runs:
  // quick CI sweeps and A/B toggles must not clobber the committed
  // baseline numbers.
  if (!quick && batching) {
    const std::string json = results_dir() + "/BENCH_sim_scale.json";
    std::ofstream out(json);
    out << "{\n  \"context\": {\n"
        << "    \"executable\": \"sim_scale\",\n"
        << "    \"num_cpus\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "    \"library_build_type\": \"release\",\n"
        << "    \"ladder\": " << (ladder ? "true" : "false") << "\n"
        << "  },\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json_row(out, rows[i], i + 1 == rows.size());
    }
    out << "  ]\n}\n";
    std::cout << "  JSON: " << json << "\n";
  }
  std::cout << "  CSV: " << csv_path(csv_name) << "\n";
  return 0;
}
