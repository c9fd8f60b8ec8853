// The bench harness (bench/bench_util.h): the one flag parser every
// figure and ablation bench uses, and the driver that runs a bench's list
// of runs through run_batch and hands their outputs back in list order.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace mdsim {
namespace {

using bench::BenchArgs;

/// The flag sets benches take: fig2's, gray_failure's and the plain one
/// of a bench that takes only --quick.
enum Kind { kPlain, kFig2, kScenarios };

BenchArgs parse(std::vector<std::string> words, Kind kind) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  const int argc = static_cast<int>(argv.size());
  if (kind == kScenarios) {
    return bench::parse_args(argc, argv.data(), bench::kVerboseFlag,
                             {"failslow", "chaos", "all"});
  }
  return bench::parse_args(
      argc, argv.data(),
      kind == kFig2 ? bench::kLayerFlags | bench::kShardFlags : 0);
}

TEST(BenchArgs, DefaultsAreTheSingleEngineSweep) {
  const BenchArgs a = parse({}, kScenarios);
  EXPECT_FALSE(a.quick);
  EXPECT_EQ(a.scenario, "failslow");
  EXPECT_EQ(a.shards, 1);
  EXPECT_EQ(a.threads, 1);
  EXPECT_FALSE(a.overload_noop || a.giga_off || a.gray_noop || a.verbose);
}

TEST(BenchArgs, QuickIsHonouredInAnyPosition) {
  const BenchArgs a = parse({"--giga-off", "--quick"}, kFig2);
  EXPECT_TRUE(a.quick);
  EXPECT_TRUE(a.giga_off);
  const BenchArgs b = parse(
      {"--shards=2", "--gray-noop", "--threads=4", "--quick",
       "--overload-noop"},
      kFig2);
  EXPECT_TRUE(b.quick);
  EXPECT_TRUE(b.gray_noop);
  EXPECT_TRUE(b.overload_noop);
  EXPECT_EQ(b.shards, 2);
  EXPECT_EQ(b.threads, 4);
  const BenchArgs c = parse({"--verbose", "--scenario=all", "--quick"},
                            kScenarios);
  EXPECT_TRUE(c.quick);
  EXPECT_TRUE(c.verbose);
  EXPECT_EQ(c.scenario, "all");
}

TEST(BenchArgsDeathTest, BadInputExitsTwoWithUsage) {
  EXPECT_EXIT(parse({"--quick", "--bogus"}, kPlain),
              ::testing::ExitedWithCode(2), "usage: bench \\[--quick\\]");
  EXPECT_EXIT(parse({"--scenario=failslwo"}, kScenarios),
              ::testing::ExitedWithCode(2), "unknown scenario");
  EXPECT_EXIT(parse({"--shards=0"}, kFig2), ::testing::ExitedWithCode(2),
              "--shards=0: N must be");
  EXPECT_EXIT(parse({"--shards=abc"}, kFig2), ::testing::ExitedWithCode(2),
              "--shards=abc: N must be");
  EXPECT_EXIT(parse({"--threads=512"}, kFig2), ::testing::ExitedWithCode(2),
              "--threads=512: N must be");
  EXPECT_EXIT(parse({"--threads=-1"}, kFig2), ::testing::ExitedWithCode(2),
              "--threads=-1: N must be");
}

TEST(BenchArgsDeathTest, FlagsABenchCannotHonourAreErrors) {
  // A bench that builds a standalone ClusterSim cannot shard.
  EXPECT_EXIT(parse({"--shards=2"}, kPlain), ::testing::ExitedWithCode(2),
              "not a flag of this bench");
  EXPECT_EXIT(parse({"--scenario=chaos"}, kFig2),
              ::testing::ExitedWithCode(2), "not a flag of this bench");
  EXPECT_EXIT(parse({"--verbose"}, kFig2), ::testing::ExitedWithCode(2),
              "not a flag of this bench");
  // The layer flags would overwrite the configs of a bench whose own arms
  // set that layer (gray_failure's mitigation arm, say).
  for (const char* layer : {"--overload-noop", "--giga-off", "--gray-noop"}) {
    EXPECT_EXIT(parse({"--quick", layer}, kScenarios),
                ::testing::ExitedWithCode(2), "not a flag of this bench");
    EXPECT_EXIT(parse({layer}, kPlain), ::testing::ExitedWithCode(2),
                "usage: bench \\[--quick\\]\n");
  }
}

// --- the driver ------------------------------------------------------------

void simulate(const SimConfig& cfg, bench::Output<>& o) {
  ClusterSim cluster(cfg);
  cluster.run();
  const char* name = strategy_name(cfg.strategy);
  const TimeSeries& tput = cluster.metrics().avg_throughput();
  for (const auto& p : tput.points()) {
    o.rows.field(name).field(to_seconds(p.time)).field(p.value);
    o.rows.end_row();
  }
  o.value = {name, std::to_string(cluster.metrics().total_replies())};
  o.out << "[" << name << "] hedging " << cfg.hedge.enabled << ", giga "
        << cfg.mds.giga_enabled << ", mean tput "
        << fmt_double(tput.mean_in(cfg.warmup, cfg.duration), 1) << "\n";
}

/// A bench in miniature: five runs at `parallelism` jobs. Returns the CSV
/// file's text and stdout, the console table included.
std::pair<std::string, std::string> run_spec(unsigned parallelism) {
  std::vector<bench::Run<>> runs;
  for (StrategyKind k : bench::kAllStrategies) {
    SimConfig cfg;
    cfg.strategy = k;
    cfg.num_mds = 3;
    cfg.num_clients = 60;
    cfg.fs.num_users = 12;
    cfg.fs.nodes_per_user = 150;
    cfg.duration = 3 * kSecond;
    cfg.warmup = kSecond;
    runs.push_back({cfg, simulate});
  }
  BenchArgs args;
  args.gray_noop = true;  // the flags reach every run, at any job count
  args.giga_off = true;
  const std::string path = ::testing::TempDir() + "bench_driver_" +
                           std::to_string(parallelism) + ".csv";
  ::testing::internal::CaptureStdout();
  {
    CsvWriter csv(path);
    csv.header({"strategy", "time_s", "avg_tput"});
    ConsoleTable table({"strategy", "replies"});
    for (const auto& o : bench::run_all(args, std::move(runs), &csv,
                                        parallelism)) {
      table.add_row(o.value);
    }
    table.print();
  }
  const std::string console = ::testing::internal::GetCapturedStdout();
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return {text.str(), console};
}

TEST(BenchDriver, OutputDoesNotDependOnJobCount) {
  const auto serial = run_spec(1);
  const auto parallel = run_spec(4);
  EXPECT_GT(serial.first.size(), 200u);
  EXPECT_NE(serial.second.find("hedging 1, giga 0"), std::string::npos);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

}  // namespace
}  // namespace mdsim
