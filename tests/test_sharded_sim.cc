#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/fault_plan.h"
#include "core/sharded_cluster.h"
#include "sim/sharded.h"

namespace mdsim {
namespace {

// --- engine semantics --------------------------------------------------

struct Chain {
  Simulation* sim = nullptr;
  std::vector<std::pair<SimTime, int>>* trace = nullptr;
  int id = 0;
  SimTime step = 0;
  int remaining = 0;
  void fire() {
    trace->emplace_back(sim->now(), id);
    if (--remaining > 0) {
      sim->schedule(step, [this] { fire(); });
    }
  }
};

void seed_chains(Simulation& sim,
                 std::vector<std::unique_ptr<Chain>>& chains,
                 std::vector<std::pair<SimTime, int>>& trace,
                 std::uint64_t seed) {
  Rng rng(seed, 0x5eed);
  for (int k = 0; k < 6; ++k) {
    auto c = std::make_unique<Chain>();
    c->sim = &sim;
    c->trace = &trace;
    c->id = k;
    c->step = 50 + rng.uniform(500);
    c->remaining = 20 + static_cast<int>(rng.uniform(30));
    const SimTime start = rng.uniform(300);
    sim.schedule_at(start, [p = c.get()] { p->fire(); });
    chains.push_back(std::move(c));
  }
}

TEST(ShardedSim, SingleShardMatchesPlainSimulation) {
  // The windowed driver must be invisible: one shard, no cross traffic,
  // identical event trace and clock to a plain Simulation run.
  std::vector<std::pair<SimTime, int>> plain_trace, sharded_trace;
  std::vector<std::unique_ptr<Chain>> a, b;

  Simulation plain;
  seed_chains(plain, a, plain_trace, 99);
  const std::uint64_t plain_events = plain.run_until(8000);

  ShardedSimulation eng(1, /*lookahead=*/100);
  seed_chains(eng.shard(0), b, sharded_trace, 99);
  const std::uint64_t sharded_events = eng.run_until(8000);

  EXPECT_EQ(plain_trace, sharded_trace);
  EXPECT_EQ(plain_events, sharded_events);
  EXPECT_EQ(plain.now(), eng.shard(0).now());
}

TEST(ShardedSim, ClocksEndExactlyAtUntil) {
  ShardedSimulation eng(3, 100);
  eng.shard(1).schedule(10, [] {});
  eng.run_until(1000);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(eng.shard(s).now(), 1000);
  EXPECT_EQ(eng.run_until(2000), 0u);  // nothing left to execute
  for (int s = 0; s < 3; ++s) EXPECT_EQ(eng.shard(s).now(), 2000);
}

TEST(ShardedSim, CrossPostRunsAtStampedTimeInDestinationEngine) {
  ShardedSimulation eng(2, 1000);
  std::vector<SimTime> at;
  eng.shard(0).schedule(500, [&] {
    const SimTime when = eng.shard(0).now() + 1000;  // exactly lookahead
    eng.post(0, 1, when, InlineTask([&] {
      at.push_back(eng.shard(1).now());
    }));
  });
  eng.run_until(5000);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 1500);
  EXPECT_EQ(eng.cross_posts(), 1u);
}

// --- cross-shard ordering determinism (the tentpole invariant) ---------

// A mesh of drivers, one per shard, all firing at the same instants and
// posting into randomly chosen destination shards with delivery exactly
// lookahead away — so every round, several sources' messages land in the
// same destination at the same simulated instant. The drained order (and
// therefore the same-instant tie-break) must be a pure function of the
// simulation: any thread count, any seed, byte-identical traces.
struct MeshRun {
  std::vector<std::string> lines;
  std::uint64_t events = 0;
  std::uint64_t crossings = 0;
};

MeshRun run_mesh(std::uint64_t seed, int threads, int shards) {
  constexpr SimTime kLookahead = 1000;
  ShardedSimulation eng(shards, kLookahead);
  eng.set_threads(threads);
  std::vector<std::vector<std::string>> traces(
      static_cast<std::size_t>(shards));

  struct Driver {
    ShardedSimulation* eng = nullptr;
    std::vector<std::vector<std::string>>* traces = nullptr;
    int s = 0;
    int shards = 0;
    Rng rng;
    int payload = 0;
    void fire() {
      Simulation& sim = eng->shard(s);
      for (int k = 0; k < 2; ++k) {
        int d = static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(shards - 1)));
        if (d >= s) ++d;
        const int p = payload++;
        const int src = s;
        Simulation* dest_sim = &eng->shard(d);
        auto* tr = &(*traces)[static_cast<std::size_t>(d)];
        eng->post(s, d, sim.now() + kLookahead,
                  InlineTask([tr, dest_sim, src, p] {
                    tr->push_back(std::to_string(dest_sim->now()) + ":" +
                                  std::to_string(src) + ":" +
                                  std::to_string(p));
                  }));
      }
      if (sim.now() + 500 <= 20000) sim.schedule(500, [this] { fire(); });
    }
  };

  std::vector<std::unique_ptr<Driver>> drivers;
  for (int s = 0; s < shards; ++s) {
    auto d = std::make_unique<Driver>();
    d->eng = &eng;
    d->traces = &traces;
    d->s = s;
    d->shards = shards;
    d->rng = Rng(seed, static_cast<std::uint64_t>(s));
    eng.shard(s).schedule_at(0, [p = d.get()] { p->fire(); });
    drivers.push_back(std::move(d));
  }

  MeshRun out;
  out.events = eng.run_until(25000);
  out.crossings = eng.cross_posts();
  for (int s = 0; s < shards; ++s) {
    out.lines.push_back("shard " + std::to_string(s));
    for (auto& l : traces[static_cast<std::size_t>(s)]) {
      out.lines.push_back(std::move(l));
    }
  }
  return out;
}

TEST(ShardedSim, SameInstantCrossTrafficIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const MeshRun base = run_mesh(seed, /*threads=*/1, /*shards=*/4);
    EXPECT_GT(base.crossings, 0u);
    for (int threads : {2, 4}) {
      const MeshRun run = run_mesh(seed, threads, 4);
      EXPECT_EQ(base.lines, run.lines)
          << "seed " << seed << ", threads " << threads;
      EXPECT_EQ(base.events, run.events);
      EXPECT_EQ(base.crossings, run.crossings);
    }
  }
}

TEST(ShardedSim, MeshRepeatsByteIdenticalAtSameThreadCount) {
  const MeshRun a = run_mesh(7, 4, 4);
  const MeshRun b = run_mesh(7, 4, 4);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.events, b.events);
}

// --- worker pool and window handoff -------------------------------------

TEST(ShardedSim, LoweredThreadCountIsHonoured) {
  // Every shard fires at every window start; after 4 -> 2 threads, at
  // most two distinct threads may execute shards.
  constexpr int kShards = 4;
  ShardedSimulation eng(kShards, /*lookahead=*/10);
  std::vector<std::vector<std::thread::id>> ran_on(kShards);
  for (int s = 0; s < kShards; ++s) {
    auto* ids = &ran_on[static_cast<std::size_t>(s)];
    eng.shard(s).every(10, 0, [ids] {
      ids->push_back(std::this_thread::get_id());
      return true;
    });
  }
  eng.set_threads(4);
  eng.run_until(20000);
  for (auto& ids : ran_on) ids.clear();
  eng.set_threads(2);
  eng.run_until(40000);
  std::set<std::thread::id> distinct;
  for (const auto& ids : ran_on) {
    EXPECT_FALSE(ids.empty());
    distinct.insert(ids.begin(), ids.end());
  }
  EXPECT_LE(distinct.size(), 2u);
}

TEST(ShardedSim, ForEachShardRunsEachShardOncePerRound) {
  // Tens of thousands of short rounds with uneven shard work, so owners
  // fall behind and their home shards are stolen, and at 8 threads on
  // fewer cores workers are preempted between reading a round and
  // claiming. Every round must run every shard exactly once, never on two
  // threads at once. A claim accepted from any tag but the claimer's own
  // round breaks this: a worker still on the previous round takes a shard
  // of the current one, which then runs twice (or the round never ends;
  // ctest's TIMEOUT bounds that).
  constexpr int kShards = 8;
  constexpr int kRounds = 50000;
  for (int threads : {2, 3, 4, 8}) {
    ShardedSimulation eng(kShards, /*lookahead=*/1);
    eng.set_threads(threads);
    std::array<std::atomic<int>, kShards> in_flight{};
    std::array<std::atomic<int>, kShards> runs{};
    std::atomic<int> overlaps{0};
    int bad_round = -1;
    for (int r = 0; r < kRounds && bad_round < 0; ++r) {
      eng.for_each_shard([&](int i) {
        const auto u = static_cast<std::size_t>(i);
        if (in_flight[u].exchange(1) != 0) overlaps.fetch_add(1);
        // 0 to 140 spins, the heavy shard moving from round to round.
        volatile int spin = 0;
        for (int k = ((i + r) % kShards) * 20; k > 0; --k) spin = spin + 1;
        runs[u].fetch_add(1);
        in_flight[u].store(0);
      });
      for (auto& n : runs) {
        if (n.exchange(0) != 1) bad_round = r;
      }
    }
    EXPECT_EQ(bad_round, -1) << "threads " << threads;
    EXPECT_EQ(overlaps.load(), 0) << "threads " << threads;
  }
}

// Tokens hop between shards, one event per hop, each hop posting the next
// one lookahead (plus 0-2 ns) away into a random other shard: thousands of
// windows that each run one or two events, every one of them followed by
// a cross-shard drain.
constexpr SimTime kRingLookahead = 10;
constexpr int kRingShards = 4;

struct TokenRing {
  ShardedSimulation* eng = nullptr;
  std::vector<std::vector<std::string>> traces;
  std::vector<Rng> rngs;

  TokenRing(ShardedSimulation& e, std::uint64_t seed) : eng(&e) {
    traces.resize(kRingShards);
    for (int s = 0; s < kRingShards; ++s) {
      rngs.emplace_back(seed, static_cast<std::uint64_t>(s));
    }
    for (int token = 0; token < 2; ++token) {
      const int s = token * 2;
      eng->shard(s).schedule_at(token, [this, s, token] { hop(s, token); });
    }
  }

  void hop(int s, int token) {
    Simulation& sim = eng->shard(s);
    traces[static_cast<std::size_t>(s)].push_back(
        std::to_string(sim.now()) + ":" + std::to_string(token));
    Rng& rng = rngs[static_cast<std::size_t>(s)];
    int d = static_cast<int>(rng.uniform(kRingShards - 1));
    if (d >= s) ++d;
    const SimTime when =
        sim.now() + kRingLookahead + static_cast<SimTime>(rng.uniform(3));
    eng->post(s, d, when, InlineTask([this, d, token] { hop(d, token); }));
  }
};

struct RingRun {
  std::vector<std::string> lines;
  std::uint64_t events = 0;
  std::uint64_t crossings = 0;
  std::uint64_t windows = 0;
};

/// One run_until per leg, each at the leg's thread count. With
/// `idle_gaps`, every leg is followed by a wait until the pool's workers
/// have parked, so the next leg (or the destructor) must wake them;
/// without, the engine is destroyed right after the last window, while
/// its workers still spin.
struct RingLeg {
  int threads;
  SimTime until;
};

bool wait_for_parks(const ShardedSimulation& eng, std::uint64_t parks) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (eng.counters().worker_parks < parks) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

RingRun run_ring(const std::vector<RingLeg>& legs, bool idle_gaps) {
  RingRun out;
  ShardedSimulation eng(kRingShards, kRingLookahead);
  TokenRing ring(eng, 11);
  for (const RingLeg& leg : legs) {
    eng.set_threads(leg.threads);
    const std::uint64_t parks = eng.counters().worker_parks;
    out.events += eng.run_until(leg.until);
    if (idle_gaps && eng.threads() > 1) {
      EXPECT_TRUE(wait_for_parks(
          eng, parks + static_cast<std::uint64_t>(eng.threads() - 1)))
          << "workers never parked after a leg at " << leg.threads
          << " threads";
    }
  }
  EXPECT_EQ(out.events, eng.events_executed());
  out.crossings = eng.cross_posts();
  out.windows = eng.counters().windows;
  for (int s = 0; s < kRingShards; ++s) {
    out.lines.push_back("shard " + std::to_string(s));
    for (auto& l : ring.traces[static_cast<std::size_t>(s)]) {
      out.lines.push_back(std::move(l));
    }
  }
  return out;
}

void expect_same_ring(const RingRun& base, const RingRun& run,
                      const std::string& what) {
  EXPECT_EQ(base.lines, run.lines) << what;
  EXPECT_EQ(base.events, run.events) << what;
  EXPECT_EQ(base.crossings, run.crossings) << what;
}

TEST(ShardedSim, BarrierStressIdenticalAcrossThreadsAndTeardown) {
  constexpr SimTime kEnd = 40000;
  const RingRun base = run_ring({{1, kEnd}}, /*idle_gaps=*/false);
  EXPECT_GT(base.windows, 3000u);
  EXPECT_EQ(base.crossings, base.events);    // every hop crosses
  EXPECT_LT(base.events, 2 * base.windows);  // mostly 1-event windows

  for (int threads : {1, 2, 3, 4, 8}) {
    const RingRun run = run_ring({{threads, kEnd}}, false);
    expect_same_ring(base, run, "threads " + std::to_string(threads));
    EXPECT_EQ(base.windows, run.windows) << "threads " << threads;
  }
  // Thread count changed between run_until calls (each call boundary
  // clamps a window, so only the window count may differ).
  expect_same_ring(base,
                   run_ring({{4, kEnd / 4}, {1, kEnd / 2}, {3, kEnd}}, false),
                   "threads 4 -> 1 -> 3");
  // Workers parked between legs and before destruction.
  expect_same_ring(base,
                   run_ring({{4, kEnd / 3}, {4, 2 * kEnd / 3}, {2, kEnd}},
                            /*idle_gaps=*/true),
                   "idle gaps at 4 -> 4 -> 2 threads");
}

TEST(ShardedSim, WindowCountersIdenticalAcrossThreadCounts) {
  std::vector<ShardedSimulation::Counters> runs;
  for (int threads : {1, 2, 4}) {
    SimConfig cfg;
    cfg.num_mds = 4;
    cfg.num_clients = 40;
    cfg.fs.num_users = 4;
    cfg.fs.nodes_per_user = 200;
    cfg.duration = 400 * kMillisecond;
    cfg.warmup = 100 * kMillisecond;
    cfg.shards = 2;
    cfg.threads = threads;
    ShardedClusterSim cluster(cfg);
    cluster.run();
    runs.push_back(cluster.engine().counters());
  }
  EXPECT_GT(runs[0].windows, 0u);
  EXPECT_EQ(runs[0].windows, runs[1].windows);
  EXPECT_EQ(runs[0].windows, runs[2].windows);
  // One thread never hands off: nothing parks, nothing is waited for and
  // no shard changes threads.
  EXPECT_EQ(runs[0].worker_parks, 0u);
  EXPECT_EQ(runs[0].coordinator_wait_ns, 0u);
  EXPECT_EQ(runs[0].shard_moves, 0u);
  for (const auto& c : runs) {
    ASSERT_EQ(c.busy_ns.size(), 2u);
    for (std::uint64_t busy : c.busy_ns) EXPECT_GT(busy, 0u);
  }
}

// --- full-cluster determinism ------------------------------------------

// Crash and restart times for the fault variant: shard 1's MDS 1 goes
// down mid-run and comes back after its peer has detected the crash.
constexpr SimTime kCrashAt = 300 * kMillisecond;
constexpr SimTime kRestartAt = 900 * kMillisecond;

struct ClusterRun {
  RunResult result;
  RunResult recomputed;  // summarize() over the per-shard Metrics
  std::uint64_t events = 0;
  std::vector<std::vector<std::pair<SimTime, double>>> avg_tput;  // per shard
  /// Per shard, per incident: node, crashed, detected, takeover,
  /// restarted, rejoined, remarked-up.
  std::vector<std::vector<std::vector<SimTime>>> incidents;
};

ClusterRun run_cluster(int threads, bool faults) {
  SimConfig cfg;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 400 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.sample_period = 50 * kMillisecond;
  cfg.shards = 2;
  cfg.threads = threads;
  if (faults) {
    // Heartbeats fast enough to detect the crash within the run.
    cfg.mds.heartbeat_period = 50 * kMillisecond;
    cfg.duration = 1200 * kMillisecond;
  }
  ShardedClusterSim cluster(cfg);
  if (faults) {
    FaultPlan().crash(kCrashAt, 1).restart(kRestartAt, 1).arm(
        cluster.shard(1));
  }
  cluster.run();

  ClusterRun r;
  r.result = cluster.result();
  r.events = cluster.engine().events_executed();
  std::vector<const Metrics*> metrics;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    ClusterSim& shard = cluster.shard(s);
    metrics.push_back(&shard.metrics());
    r.avg_tput.emplace_back();
    for (const auto& p : shard.metrics().avg_throughput().points()) {
      r.avg_tput.back().emplace_back(p.time, p.value);
    }
    r.incidents.emplace_back();
    for (const FaultIncident& inc : shard.fault_log().incidents()) {
      r.incidents.back().push_back(
          {static_cast<SimTime>(inc.node), inc.crashed_at, inc.detected_at,
           inc.takeover_at, inc.restarted_at, inc.rejoined_at,
           inc.remarked_up_at});
    }
  }
  r.recomputed = summarize(cfg, metrics, cluster.shard(0).sim().now());
  return r;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.avg_mds_throughput, b.avg_mds_throughput);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.prefix_fraction, b.prefix_fraction);
  EXPECT_EQ(a.forward_fraction, b.forward_fraction);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
}

TEST(ShardedSim, OneShardMatchesSingleEngine) {
  // One shard is the single engine with a cross-shard link attached and
  // nothing to send over it: the same cluster, clients and client timers,
  // so the run must match a plain ClusterSim event for event.
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 4,
                                       /*seed=*/3);
  cfg.duration = 2 * kSecond;
  cfg.warmup = kSecond / 2;

  ClusterSim single(cfg);
  single.run();
  const RunResult a =
      summarize(cfg, {&single.metrics()}, single.sim().now());

  cfg.shards = 1;
  ShardedClusterSim sharded(cfg);
  sharded.run();
  const RunResult& b = sharded.result();

  EXPECT_GT(a.replies, 1000u);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.forward_fraction, b.forward_fraction);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(single.sim().events_executed(),
            sharded.engine().events_executed());
}

TEST(ShardedSim, RemoteMessagesToCrashedMdsAreDroppedAndCounted) {
  // Every client turn goes remote, so shard 1's MDS nodes see only shard
  // 0's stats, aimed through a catalog frozen when run() builds it. Shard
  // 1's MDS 1 crashes at t = 0, after that: the static-subtree takeover
  // hands its subtrees to MDS 0 and no heartbeats flow, so nothing local
  // addresses the dead node, but shard 0's catalog still names it. Those
  // cross-shard messages must be lost in shard 1's network and counted
  // there, as a local send to a downed endpoint is.
  SimConfig cfg;
  cfg.strategy = StrategyKind::kStaticSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 400 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.shards = 2;
  cfg.shard_remote_fraction = 1.0;
  ShardedClusterSim cluster(cfg);
  FaultPlan().crash(0, 1).arm(cluster.shard(1));
  cluster.run();
  EXPECT_GT(cluster.shard(0).cohort().remote_ops_issued(), 0u);
  EXPECT_GT(cluster.shard(1).network().down_dropped(), 0u);
}

TEST(ShardedSim, ClusterResultsIdenticalAcrossThreadCounts) {
  const ClusterRun r1 = run_cluster(1, /*faults=*/false);
  const ClusterRun r4 = run_cluster(4, /*faults=*/false);
  EXPECT_EQ(r1.events, r4.events);
  expect_same_result(r1.result, r4.result);
  EXPECT_GT(r1.result.replies, 0u);

  // Every shard samples the standalone engine's time series, and the
  // series do not depend on the thread count either.
  ASSERT_EQ(r1.avg_tput.size(), 2u);
  for (const auto& series : r1.avg_tput) EXPECT_FALSE(series.empty());
  EXPECT_EQ(r1.avg_tput, r4.avg_tput);

  // The run's summary is exactly summarize() over the shards' Metrics.
  expect_same_result(r1.result, r1.recomputed);

  // A FaultPlan armed on shard 1 crashes and restarts that shard's MDS 1:
  // the incident lands in shard 1's FaultLog only, detected by its peer,
  // and the faulted run is as thread-count invariant as a healthy one.
  const ClusterRun f1 = run_cluster(1, /*faults=*/true);
  const ClusterRun f4 = run_cluster(4, /*faults=*/true);
  EXPECT_TRUE(f1.incidents[0].empty());
  ASSERT_EQ(f1.incidents[1].size(), 1u);
  const std::vector<SimTime>& inc = f1.incidents[1][0];
  EXPECT_EQ(inc[0], 1);  // node
  EXPECT_EQ(inc[1], kCrashAt);
  EXPECT_GT(inc[2], kCrashAt);  // detected
  EXPECT_LT(inc[2], kRestartAt);
  EXPECT_EQ(inc[4], kRestartAt);
  EXPECT_EQ(f1.incidents, f4.incidents);
  EXPECT_EQ(f1.events, f4.events);
  expect_same_result(f1.result, f4.result);
  EXPECT_EQ(f1.avg_tput, f4.avg_tput);
}

}  // namespace
}  // namespace mdsim
