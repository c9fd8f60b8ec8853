// Chaos stress: a scripted FaultPlan (crashes, restarts, a flaky link)
// runs against a loaded cluster while invariant sweeps check that the
// failure machinery never corrupts state — a single authority per
// subtree, no leaked frozen/deferred requests, caches structurally sound
// — and that the whole scenario is bit-for-bit reproducible per seed.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/fault_plan.h"
#include "test_util.h"

namespace mdsim {
namespace {

SimConfig chaos_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = 120;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 32;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 30 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.client_retry.request_timeout = kSecond;
  return cfg;
}

FaultPlan chaos_plan() {
  LinkFault flaky;
  flaky.drop = 0.5;
  flaky.duplicate = 0.5;
  flaky.spike = 0.5;
  flaky.spike_latency = 20 * kMillisecond;

  // Restarts land after the grace-delayed takeovers (~detect + 4s): a
  // node that comes back while its takeover is still pending cancels it,
  // and the incident-lifecycle assertions below expect takeovers to run.
  FaultPlan plan;
  plan.crash(8 * kSecond, 1, /*warm=*/true)
      .restart(18 * kSecond, 1)
      .flaky_link(10 * kSecond, 12 * kSecond, 2, 3, flaky)
      .crash(18 * kSecond, 3, /*warm=*/false)
      .restart(28 * kSecond, 3);
  return plan;
}

void sweep_invariants(ClusterSim& cluster, SimTime at) {
  for (int i = 0; i < cluster.num_mds(); ++i) {
    MdsNode& n = cluster.mds(i);
    EXPECT_EQ(n.cache().check_invariants(), "")
        << "node " << i << " at t=" << to_seconds(at);
    // A frozen subtree exists only inside a double-commit; deferred
    // requests exist only behind a frozen subtree.
    if (n.frozen_subtrees() > 0) {
      EXPECT_TRUE(n.migrating()) << "node " << i << " at t=" << to_seconds(at);
    }
    if (n.deferred_requests() > 0) {
      EXPECT_GT(n.frozen_subtrees(), 0u)
          << "node " << i << " at t=" << to_seconds(at);
    }
  }
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, ScriptedFaultsNeverCorruptState) {
  ClusterSim cluster(chaos_config(GetParam()));
  cluster.run_until(0);
  chaos_plan().arm(cluster);

  // Phase boundaries: healthy, post-crash, post-detection, flaky link
  // live, post-restart, second crash, fully recovered, quiesced.
  const SimTime checkpoints[] = {
      5 * kSecond,  9 * kSecond,  13 * kSecond, 16 * kSecond,
      19 * kSecond, 23 * kSecond, 26 * kSecond, 30 * kSecond};
  for (SimTime t : checkpoints) {
    cluster.run_until(t);
    sweep_invariants(cluster, t);
  }
  // Let in-flight double-commits resolve (watchdog horizon), then the
  // terminal state must be fully quiesced.
  cluster.run_until(34 * kSecond);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).frozen_subtrees(), 0u) << i;
    EXPECT_EQ(cluster.mds(i).deferred_requests(), 0u) << i;
    EXPECT_FALSE(cluster.mds(i).failed()) << i;
  }

  // Exactly one live authority per delegated subtree.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    for (const FsNode* root : subtree->delegations_of(i)) {
      EXPECT_EQ(subtree->authority_of(root), i);
      EXPECT_FALSE(cluster.mds(i).failed());
    }
  }

  // Both scripted incidents ran their full lifecycle.
  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 2u);
  for (const auto& inc : incidents) {
    EXPECT_TRUE(inc.has(inc.detected_at)) << inc.node;
    EXPECT_TRUE(inc.has(inc.takeover_at)) << inc.node;
    EXPECT_TRUE(inc.has(inc.rejoined_at)) << inc.node;
    EXPECT_TRUE(inc.has(inc.remarked_up_at)) << inc.node;
    EXPECT_FALSE(inc.open) << inc.node;
  }

  // The flaky link actually injected faults, and clients survived them:
  // every issued op either completed or failed — none vanished.
  const auto& fc = cluster.network().fault_counters();
  EXPECT_GT(fc.dropped + fc.duplicated + fc.spiked, 0u);
  const ClientStats s = cluster.cohort().totals();
  EXPECT_GT(s.ops_completed, 0u);
  EXPECT_LE(s.ops_completed, s.ops_issued);
  EXPECT_LE(s.ops_failed, s.ops_issued);
  // Post-recovery the cluster still serves at a healthy clip.
  EXPECT_GT(cluster.metrics().avg_throughput().mean_in(26 * kSecond,
                                                       30 * kSecond),
            100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u));

// Randomized chaos: FaultPlan::randomize composes a crash/restart pair,
// a fail-slow window, a flaky link and a sustained lossy degrade from
// one seeded stream. Whatever the draw, the invariants must hold at
// every checkpoint, and after the last window closes (4/5 of the
// duration) and the restart rejoins, the cluster must quiesce with no
// request left in limbo: everything a client issued either completed,
// failed, or is the one op legitimately in flight per client.
class RandomChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChaosSweep, GeneratedPlansNeverCorruptOrLeakRequests) {
  SimConfig cfg = chaos_config(GetParam());
  cfg.num_clients = 90;
  cfg.mds.health.enabled = true;  // detection races injection, by design
  const SimTime dur = cfg.duration;
  ClusterSim cluster(cfg);
  cluster.run_until(0);
  FaultPlan::randomize(GetParam(), cfg.num_mds, dur).arm(cluster);

  for (SimTime t = 5 * kSecond; t <= dur; t += 5 * kSecond) {
    cluster.run_until(t);
    sweep_invariants(cluster, t);
  }
  // Quiesce past the migration watchdog horizon.
  cluster.run_until(dur + 6 * kSecond);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).frozen_subtrees(), 0u) << i;
    EXPECT_EQ(cluster.mds(i).deferred_requests(), 0u) << i;
    EXPECT_FALSE(cluster.mds(i).failed()) << i;
    EXPECT_EQ(cluster.mds(i).cpu().service_time_multiplier(), 1.0) << i;
    EXPECT_EQ(cluster.mds(i).disk().service_time_multiplier(), 1.0) << i;
  }
  // No request outlives its deadline unanswered. ops_issued counts every
  // attempt, so each issue must be accounted for by a success (ops_ok),
  // a terminal failure (failure reply or budget-suppressed timeout —
  // ops_failed covers both), a timeout re-issue (retries minus the
  // suppressed ones), a rejection-driven re-issue (bounded by
  // rejected_replies), or the single op a closed-loop client may still
  // have in flight. Nothing vanishes into a dead or degraded node.
  for (int c = 0; c < cluster.num_clients(); ++c) {
    const ClientStats& s = cluster.client(c).stats();
    ASSERT_GE(s.ops_issued, s.ops_ok + s.ops_failed) << c;
    const std::uint64_t unresolved = s.ops_issued - s.ops_ok - s.ops_failed;
    const std::uint64_t reissues =
        (s.retries - s.retries_suppressed) + s.rejected_replies;
    EXPECT_LE(unresolved, reissues + 1) << c;
  }
  // The generated schedule really injected something on every axis it
  // scripts: a crash incident and a fail-slow window are logged.
  EXPECT_FALSE(cluster.fault_log().incidents().empty());
  const std::vector<Episode> fs =
      cluster.fault_log().episodes(Episode::Kind::kFailSlow);
  ASSERT_FALSE(fs.empty());
  EXPECT_FALSE(fs.front().open());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChaosSweep,
                         ::testing::Values(3u, 11u, 77u));

TEST(Chaos, SameSeedRandomizedPlanIsBitForBitReproducible) {
  auto run = []() {
    SimConfig cfg = chaos_config(11);
    cfg.num_clients = 90;
    cfg.mds.health.enabled = true;
    ClusterSim cluster(cfg);
    cluster.run_until(0);
    FaultPlan::randomize(11, cfg.num_mds, cfg.duration).arm(cluster);
    cluster.run_until(cfg.duration);

    const ClientStats s = cluster.cohort().totals();
    const auto& fc = cluster.network().fault_counters();
    return std::make_tuple(
        s.ops_completed, s.ops_failed, s.retries, s.stale_replies,
        s.hedges_fired, fc.dropped,
        fc.duplicated, fc.spiked,
        cluster.fault_log().episodes(Episode::Kind::kGray).size(),
        cluster.fault_log().episode_seconds(Episode::Kind::kGray,
                                            cfg.duration),
        cluster.metrics().total_replies());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(Chaos, SameSeedSamePlanIsBitForBitReproducible) {
  auto run = []() {
    ClusterSim cluster(chaos_config(42));
    cluster.run_until(0);
    chaos_plan().arm(cluster);
    cluster.run_until(30 * kSecond);

    std::vector<double> tput;
    for (const auto& p : cluster.metrics().avg_throughput().points()) {
      tput.push_back(p.value);
    }
    const ClientStats s = cluster.cohort().totals();
    const auto& fc = cluster.network().fault_counters();
    const SimTime now = cluster.sim().now();
    return std::make_tuple(
        tput, s.ops_completed, s.ops_failed, s.retries, s.stale_replies,
        fc.dropped, fc.duplicated, fc.spiked,
        cluster.fault_log().detection_latency_seconds(now).mean(),
        cluster.fault_log().recovery_time_seconds(now).mean(),
        cluster.metrics().total_replies());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mdsim
