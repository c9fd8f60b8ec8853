// mdsim_cli: run an arbitrary cluster simulation from the command line.
//
//   ./build/examples/mdsim_cli [options]
//
// Options (all optional):
//   --strategy dynamic|static|dirhash|filehash|lazyhybrid
//   --mds N            cluster size
//   --clients N        client count
//   --users N          home directories in the namespace
//   --nodes-per-user N namespace size knob
//   --cache N          per-MDS cache capacity (items)
//   --duration S       simulated seconds
//   --warmup S         statistics reset point (seconds)
//   --seed N
//   --workload general|scientific|flash|shift
//   --no-traffic-control
//   --no-dirfrag
//   --fail-at S --fail-node K   kill an MDS mid-run
//   --csv PATH         write the per-sample throughput series
//
// A value that is not a number, has trailing characters or is out of
// range (fewer than 1 MDS, user or cache slot, a negative client count, a
// duration that is not positive, a warm-up not shorter than the run)
// exits 2 with the usage line.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "core/cluster.h"

using namespace mdsim;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cout << "usage: " << argv0
            << " [--strategy S] [--mds N] [--clients N] [--users N]\n"
               "  [--nodes-per-user N] [--cache N] [--duration S]\n"
               "  [--warmup S] [--seed N] [--workload W]\n"
               "  [--no-traffic-control] [--no-dirfrag]\n"
               "  [--fail-at S --fail-node K] [--csv PATH]\n";
  std::exit(2);
}

/// `flag`'s value `s` as a whole number in [lo, hi], or exit 2.
long long parse_int(const std::string& flag, const std::string& s,
                    long long lo, long long hi, const char* argv0) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi) {
    std::cerr << flag << " " << s << ": expected a whole number from " << lo
              << " to " << hi << "\n";
    usage(argv0);
  }
  return v;
}

/// `flag`'s value `s` as a number of seconds of magnitude at most 1e9
/// (a SimTime in ns holds about 1.8e10 s), or exit 2.
double parse_seconds(const std::string& flag, const std::string& s,
                     const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !(std::fabs(v) <= 1e9)) {
    std::cerr << flag << " " << s
              << ": expected a number of seconds from -1e9 to 1e9\n";
    usage(argv0);
  }
  return v;
}

StrategyKind parse_strategy(const std::string& s, const char* argv0) {
  if (s == "dynamic") return StrategyKind::kDynamicSubtree;
  if (s == "static") return StrategyKind::kStaticSubtree;
  if (s == "dirhash") return StrategyKind::kDirHash;
  if (s == "filehash") return StrategyKind::kFileHash;
  if (s == "lazyhybrid") return StrategyKind::kLazyHybrid;
  std::cerr << "unknown strategy: " << s << "\n";
  usage(argv0);
}

WorkloadKind parse_workload(const std::string& s, const char* argv0) {
  if (s == "general") return WorkloadKind::kGeneral;
  if (s == "scientific") return WorkloadKind::kScientific;
  if (s == "flash") return WorkloadKind::kFlashCrowd;
  if (s == "shift") return WorkloadKind::kShifting;
  std::cerr << "unknown workload: " << s << "\n";
  usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig cfg;
  cfg.num_mds = 4;
  cfg.num_clients = 200;
  cfg.fs.num_users = 64;
  cfg.fs.nodes_per_user = 400;
  double duration_s = 15.0;
  double warmup_s = 3.0;
  double fail_at = -1.0;
  int fail_node = 1;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto count = [&](long long lo) {
      return static_cast<int>(parse_int(arg, next(), lo, INT_MAX, argv[0]));
    };
    if (arg == "--strategy") {
      cfg.strategy = parse_strategy(next(), argv[0]);
    } else if (arg == "--mds") {
      cfg.num_mds = count(1);
    } else if (arg == "--clients") {
      cfg.num_clients = count(0);
    } else if (arg == "--users") {
      cfg.fs.num_users = count(1);
    } else if (arg == "--nodes-per-user") {
      cfg.fs.nodes_per_user = count(0);
    } else if (arg == "--cache") {
      cfg.mds.cache_capacity = static_cast<std::size_t>(count(1));
      cfg.mds.journal_capacity = cfg.mds.cache_capacity;
    } else if (arg == "--duration") {
      duration_s = parse_seconds(arg, next(), argv[0]);
    } else if (arg == "--warmup") {
      warmup_s = parse_seconds(arg, next(), argv[0]);
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(
          parse_int(arg, next(), 0, LLONG_MAX, argv[0]));
      cfg.fs.seed = cfg.seed;
    } else if (arg == "--workload") {
      cfg.workload = parse_workload(next(), argv[0]);
    } else if (arg == "--no-traffic-control") {
      cfg.mds.traffic_control_enabled = false;
    } else if (arg == "--no-dirfrag") {
      cfg.mds.dirfrag_enabled = false;
    } else if (arg == "--fail-at") {
      fail_at = parse_seconds(arg, next(), argv[0]);
    } else if (arg == "--fail-node") {
      fail_node = static_cast<int>(
          parse_int(arg, next(), INT_MIN, INT_MAX, argv[0]));
    } else if (arg == "--csv") {
      csv_path = next();
    } else {
      usage(argv[0]);
    }
  }
  // The statistics window [warmup, duration) must not be empty.
  if (!(duration_s > 0.0 && warmup_s >= 0.0 && warmup_s < duration_s)) {
    std::cerr << "--duration must be positive and --warmup from 0 to below "
                 "it\n";
    usage(argv[0]);
  }
  cfg.duration = from_seconds(duration_s);
  cfg.warmup = from_seconds(warmup_s);
  // A crash needs a surviving peer to take over, and the victim must exist.
  if (fail_at > 0 &&
      (cfg.num_mds < 2 || fail_node < 0 || fail_node >= cfg.num_mds)) {
    std::cerr << "--fail-node must name one of the " << cfg.num_mds
              << " MDS, and --fail-at needs at least 2\n";
    return 2;
  }
  if (cfg.workload == WorkloadKind::kScientific && cfg.fs.num_projects == 0) {
    cfg.fs.num_projects = 2;
  }

  std::cout << "Running " << cfg.label() << " for "
            << to_seconds(cfg.duration) << "s (seed " << cfg.seed
            << ")...\n";
  ClusterSim cluster(cfg);
  if (fail_at > 0) {
    cluster.run_until(from_seconds(fail_at));
    std::cout << "Failing MDS " << fail_node << " at t=" << fail_at
              << "s\n";
    cluster.fail_mds(fail_node);
  }
  cluster.run();

  Metrics& m = cluster.metrics();
  const SimTime now = cluster.sim().now();
  std::cout << "\nResults (post-warmup):\n"
            << "  avg per-MDS throughput : " << m.avg_mds_throughput(now)
            << " ops/sec\n"
            << "  cache hit rate         : " << m.cluster_hit_rate() << "\n"
            << "  prefix cache fraction  : " << m.mean_prefix_fraction()
            << "\n"
            << "  forwarded fraction     : " << m.overall_forward_fraction()
            << "\n"
            << "  mean client latency    : "
            << m.client_latency().mean() * 1e3 << " ms\n"
            << "  total replies          : " << m.total_replies() << "\n";

  ConsoleTable table({"mds", "replies", "forwards", "cache", "hit%",
                      "migr in/out", "state"});
  for (int i = 0; i < cluster.num_mds(); ++i) {
    MdsNode& node = cluster.mds(i);
    table.add_row({std::to_string(i),
                   std::to_string(node.stats().replies_sent),
                   std::to_string(node.stats().forwards),
                   std::to_string(node.cache().size()),
                   fmt_double(node.cache().stats().hit_rate() * 100, 1),
                   std::to_string(node.stats().migrations_in) + "/" +
                       std::to_string(node.stats().migrations_out),
                   node.failed() ? "FAILED" : "up"});
  }
  table.print("Per-MDS state");

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path);
    csv.header({"time_s", "avg_tput", "min_tput", "max_tput",
                "forward_fraction"});
    const auto& avg = m.avg_throughput().points();
    const auto& mn = m.min_throughput().points();
    const auto& mx = m.max_throughput().points();
    const auto& fw = m.forward_fraction().points();
    for (std::size_t i = 0; i < avg.size(); ++i) {
      csv.field(to_seconds(avg[i].time))
          .field(avg[i].value)
          .field(mn[i].value)
          .field(mx[i].value)
          .field(fw[i].value);
      csv.end_row();
    }
    std::cout << "\nTime series written to " << csv_path << "\n";
  }
  return 0;
}
