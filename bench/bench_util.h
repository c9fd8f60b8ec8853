// The bench harness shared by the figure and ablation benches (DESIGN.md
// section 5l): one flag parser, one way to run a bench's list of runs on
// core/experiment.h's run_batch, the presets several benches share, the
// output directory, CSV plumbing and console framing.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "core/experiment.h"
#include "net/shard_link.h"

namespace mdsim::bench {

/// Directory all bench CSVs land in (created on demand).
inline std::string results_dir() {
  const char* env = std::getenv("MDSIM_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string csv_path(const std::string& name) {
  return results_dir() + "/" + name + ".csv";
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=====================================================\n"
            << title << "\n"
            << paper_ref << "\n"
            << "=====================================================\n";
}

/// The flags every bench shares.
struct BenchArgs {
  bool quick = false;          // --quick: the reduced sweep
  std::string scenario;        // --scenario=NAME, else the bench's default
  int shards = 1;              // --shards=N: SimConfig::shards
  int threads = 1;             // --threads=N: SimConfig::threads
  bool overload_noop = false;  // --overload-noop: apply_overload_noop
  bool giga_off = false;       // --giga-off: apply_giga_off
  bool gray_noop = false;      // --gray-noop: apply_gray_noop
  bool verbose = false;        // --verbose: the bench's extra detail
};

/// The flags a bench takes beyond --quick and its scenarios.
enum Flags : unsigned {
  kLayerFlags = 1,  // --overload-noop, --giga-off, --gray-noop
  kShardFlags = 2,  // --shards=N, --threads=N: every run goes through run_one
  kVerboseFlag = 4,  // --verbose
};

/// Parse argv; a flag may come in any position. Every bench takes --quick;
/// the `flags` it names, and --scenario when it has `scenarios` (the first
/// is the default). An unknown flag, one this bench does not take, an
/// unknown scenario or a count that is not a whole number from 1 to
/// kMaxShards prints a usage line and exits 2.
inline BenchArgs parse_args(int argc, char** argv, unsigned flags = 0,
                            const std::vector<std::string>& scenarios = {}) {
  std::string usage = std::string("\nusage: ") + argv[0] + " [--quick]";
  for (const std::string& s : scenarios) {
    usage += (s == scenarios.front() ? " [--scenario=" : "|") + s;
  }
  if (!scenarios.empty()) usage += "]";
  if (flags & kShardFlags) usage += " [--shards=N] [--threads=N]";
  if (flags & kLayerFlags) {
    usage += " [--overload-noop] [--giga-off] [--gray-noop]";
  }
  if (flags & kVerboseFlag) usage += " [--verbose]";
  const auto fail = [&](const std::string& why) {
    std::cerr << argv[0] << ": " << why << usage << "\n";
    std::exit(2);
  };
  const auto count = [&](const std::string& arg, std::size_t prefix) {
    const char* value = arg.c_str() + prefix;
    char* end = nullptr;
    const long n = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || n < 1 || n > kMaxShards) {
      fail(arg + ": N must be a whole number from 1 to " +
           std::to_string(kMaxShards));
    }
    return static_cast<int>(n);
  };

  BenchArgs a;
  if (!scenarios.empty()) a.scenario = scenarios.front();
  const bool layers = flags & kLayerFlags, sharded = flags & kShardFlags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto has = [&](const char* key) { return arg.rfind(key, 0) == 0; };
    if (arg == "--quick") a.quick = true;
    else if (arg == "--overload-noop" && layers) a.overload_noop = true;
    else if (arg == "--giga-off" && layers) a.giga_off = true;
    else if (arg == "--gray-noop" && layers) a.gray_noop = true;
    else if (arg == "--verbose" && (flags & kVerboseFlag)) a.verbose = true;
    else if (has("--shards=") && sharded) a.shards = count(arg, 9);
    else if (has("--threads=") && sharded) a.threads = count(arg, 10);
    else if (has("--scenario=") && !scenarios.empty()) {
      a.scenario = arg.substr(11);
      if (std::ranges::count(scenarios, a.scenario) == 0) {
        fail("unknown scenario '" + a.scenario + "'");
      }
    } else {
      fail("'" + arg + "' is not a flag of this bench");
    }
  }
  return a;
}

/// What one job hands back: CSV `rows`, stdout text `out`, and the `value`
/// the bench's tables and verdicts read (by default, a console-table row).
template <typename V = std::vector<std::string>>
struct Output {
  CsvWriter rows;  // in memory
  std::ostringstream out;
  V value = V();
};

/// One run of a bench: its configuration and the job that simulates it.
/// The job gets the configuration with the flags applied. It runs on a
/// pool thread, so it owns everything it touches and never prints.
template <typename V = std::vector<std::string>>
struct Run {
  SimConfig config;
  std::function<void(const SimConfig&, Output<V>&)> job;
};

/// Set the flags on every run, run the list through run_batch, then write
/// each output's rows to `csv` (if given) and its text to stdout, in list
/// order. `parallelism` 0 derives the job count: the CPUs this process may
/// use (its affinity mask, as nproc counts them) over the worker threads
/// each sharded run starts itself.
template <typename V>
std::vector<Output<V>> run_all(const BenchArgs& args,
                               std::vector<Run<V>> runs, CsvWriter* csv,
                               unsigned parallelism = 0) {
  for (Run<V>& run : runs) {
    run.config.shards = args.shards;
    run.config.threads = args.threads;
    if (args.overload_noop) apply_overload_noop(&run.config);
    if (args.giga_off) apply_giga_off(&run.config);
    if (args.gray_noop) apply_gray_noop(&run.config);
  }
  if (parallelism == 0) {
    cpu_set_t set;
    const int n = sched_getaffinity(0, sizeof set, &set) ? 1 : CPU_COUNT(&set);
    parallelism = std::max(1, n / std::min(args.threads, args.shards));
  }
  std::vector<Output<V>> outputs =
      run_batch(runs.size(), parallelism, [&](std::size_t i) {
        Output<V> o;
        runs[i].job(runs[i].config, o);
        return o;
      });
  for (const Output<V>& o : outputs) {
    if (csv != nullptr) csv->append(o.rows);
    std::cout << o.out.str();
  }
  return outputs;
}

/// The job of a run whose bench needs only its summary.
inline void summary_job(const SimConfig& config, Output<RunResult>& o) {
  o.value = run_one(config);
}

/// Figures 5 and 6's workload shift (shift_config); at --quick, a
/// 6-MDS cluster shifting at 12 s of a 40 s run.
inline SimConfig shift_run_config(StrategyKind k, bool quick) {
  SimConfig cfg = shift_config(k);
  if (quick) {
    cfg.num_mds = 6;
    cfg.fs.num_users = 144;
    cfg.num_clients = 360;
    cfg.duration = 40 * kSecond;
    cfg.shifting.shift_at = 12 * kSecond;
  }
  return cfg;
}

/// The scientific checkpoint storm of the dirfrag and GIGA+ ablations:
/// every client creates its own file in a shared run directory.
inline SimConfig storm_config(bool quick) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = quick ? 4 : 8;
  cfg.num_clients = quick ? 200 : 600;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 100;
  cfg.fs.num_projects = 2;
  cfg.fs.project_runs = 2;
  cfg.fs.project_dir_files = 1500;
  cfg.workload = WorkloadKind::kScientific;
  cfg.scientific.compute_phase = 2 * kSecond;
  cfg.scientific.ops_per_burst = 30;
  cfg.scientific.n_to_1_fraction = 0.2;  // mostly create storms
  cfg.mds.dirfrag_size_threshold = 2000;
  cfg.mds.dirfrag_temp_threshold = 400.0;
  return cfg;
}

/// The failover benches' cluster (availability, abl_failover): dynamic
/// subtrees, a 3 000-entry cache per MDS and 1 s client timeouts over a
/// 40 s run.
inline SimConfig failure_config(int num_mds, int num_clients,
                                int nodes_per_user) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = num_mds;
  cfg.num_clients = num_clients;
  cfg.fs.num_users = 24 * num_mds;
  cfg.fs.nodes_per_user = nodes_per_user;
  cfg.mds.cache_capacity = 3000;
  cfg.duration = 40 * kSecond;
  cfg.warmup = 3 * kSecond;
  cfg.client_retry.request_timeout = kSecond;
  return cfg;
}

/// All five strategies in the paper's legend order.
inline const std::vector<StrategyKind> kAllStrategies = {
    StrategyKind::kStaticSubtree, StrategyKind::kDynamicSubtree,
    StrategyKind::kDirHash, StrategyKind::kLazyHybrid, StrategyKind::kFileHash};

}  // namespace mdsim::bench
