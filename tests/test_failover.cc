#include <gtest/gtest.h>

#include "test_util.h"

namespace mdsim {
namespace {

SimConfig failover_config(std::uint64_t seed = 42) {
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
  cfg.client_retry.request_timeout = kSecond;  // fast retries for the test
  return cfg;
}

TEST(Failover, DelegationsRedistributeToSurvivors) {
  ClusterSim cluster(failover_config());
  cluster.run_until(5 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  const MdsId victim = 1;
  const auto owned_before = subtree->delegations_of(victim);
  ASSERT_FALSE(owned_before.empty());

  cluster.fail_mds(victim);
  EXPECT_TRUE(cluster.mds(victim).failed());
  EXPECT_TRUE(cluster.network().is_down(victim));
  // Nothing is redistributed at the crash instant: the node merely went
  // silent, and survivors have not missed enough heartbeats yet.
  EXPECT_FALSE(subtree->delegations_of(victim).empty());
  EXPECT_TRUE(cluster.mds(0).peer_alive(victim));

  // After the miss threshold (3 x 1s), every survivor has declared the
  // victim dead; the coordinator then waits out the takeover grace
  // (quorum-gated takeover) before redistributing its territory.
  cluster.run_until(15 * kSecond);
  EXPECT_TRUE(subtree->delegations_of(victim).empty());
  for (const FsNode* root : owned_before) {
    const MdsId heir = subtree->authority_of(root);
    EXPECT_NE(heir, victim);
    EXPECT_GE(heir, 0);
  }
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i == victim) continue;
    EXPECT_FALSE(cluster.mds(i).peer_alive(victim)) << i;
    EXPECT_GT(cluster.mds(i).stats().peer_down_detections, 0u) << i;
  }

  // The incident log has the whole story: detection latency sits around
  // the miss horizon (3 heartbeat periods), never instant.
  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].node, victim);
  ASSERT_TRUE(incidents[0].has(incidents[0].detected_at));
  ASSERT_TRUE(incidents[0].has(incidents[0].takeover_at));
  const SimTime now = cluster.sim().now();
  const double latency =
      cluster.fault_log().detection_latency_seconds(now).mean();
  EXPECT_GT(latency, 2.0);
  EXPECT_LE(latency, 5.0);
  EXPECT_GE(cluster.fault_log().unavailability_seconds(now).mean(), latency);
}

TEST(Failover, ClusterKeepsServingThroughAFailure) {
  ClusterSim cluster(failover_config());
  cluster.run_until(8 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(24 * kSecond);

  // Clients retried onto survivors; the cluster kept answering. The
  // window starts after the grace-delayed takeover (~crash + 8s).
  Metrics& m = cluster.metrics();
  const double late_tput = m.avg_throughput().mean_in(
      17 * kSecond, 24 * kSecond);
  EXPECT_GT(late_tput, 100.0);
  EXPECT_GT(cluster.cohort().totals().retries, 0u);
  EXPECT_GT(cluster.network().dropped_messages(), 0u);
  // The dead node answered nothing after the failure instant.
  EXPECT_EQ(m.per_mds_throughput()[1].mean_in(9 * kSecond, 24 * kSecond),
            0.0);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
}

TEST(Failover, WarmTakeoverPreloadsWorkingSet) {
  ClusterSim cluster(failover_config());
  cluster.run_until(8 * kSecond);

  const MdsId victim = 1;
  const auto working_set = cluster.mds(victim).journal().replay();
  if (working_set.size() < 10) GTEST_SKIP() << "journal barely used";

  cluster.fail_mds(victim, /*warm_takeover=*/true);
  // Detection (~3-4s of missed heartbeats) + the quorum takeover grace
  // + the log replay itself.
  cluster.run_until(18 * kSecond);

  std::uint64_t warm_items = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i != victim) warm_items += cluster.mds(i).stats().takeover_warm_items;
  }
  EXPECT_GT(warm_items, 0u);

  // Items from the dead node's journal that now belong to a survivor must
  // be cached at that survivor without any client having asked for them.
  std::size_t found = 0, relevant = 0;
  for (InodeId ino : working_set) {
    FsNode* n = cluster.tree().by_ino(ino);
    if (n == nullptr) continue;
    const MdsId heir = cluster.mds(0).authority_for(n);
    if (heir == victim) continue;
    ++relevant;
    if (cluster.mds(heir).cache().peek(ino) != nullptr) ++found;
  }
  if (relevant > 0) {
    EXPECT_GT(found, relevant / 2) << found << " of " << relevant;
  }
}

TEST(Failover, ColdTakeoverSkipsLogReplay) {
  // Same seed, warm vs cold: the takeover happens in both runs (survivors
  // detect the silence and redistribute), but only the warm run replays
  // the dead node's journal into the heirs' caches.
  auto warm_items_after_takeover = [](bool warm) {
    ClusterSim cluster(failover_config(99));
    cluster.run_until(8 * kSecond);
    cluster.fail_mds(1, warm);
    cluster.run_until(18 * kSecond);
    std::uint64_t takeovers = 0, items = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      if (i == 1) continue;
      takeovers += cluster.mds(i).stats().takeovers;
      items += cluster.mds(i).stats().takeover_warm_items;
    }
    EXPECT_GT(takeovers, 0u);
    return items;
  };
  EXPECT_GT(warm_items_after_takeover(true), 0u);
  EXPECT_EQ(warm_items_after_takeover(false), 0u);
}

TEST(Failover, RecoveryRejoinsAndServesAgain) {
  ClusterSim cluster(failover_config());
  cluster.run_until(6 * kSecond);
  cluster.fail_mds(2);
  // Restart only after the grace-delayed takeover (~detect + 4s) has
  // executed; an earlier restart would cancel the pending takeover.
  cluster.run_until(16 * kSecond);
  cluster.recover_mds(2);
  EXPECT_FALSE(cluster.mds(2).failed());
  EXPECT_FALSE(cluster.network().is_down(2));
  // Cold rejoin: cache nearly empty (root and its anchors survive).
  EXPECT_LT(cluster.mds(2).cache().size(), 16u);
  EXPECT_EQ(cluster.mds(2).cache().check_invariants(), "");

  // Give the balancer time: the rejoined node ends up doing work again.
  cluster.run_until(30 * kSecond);
  const double rejoined_tput =
      cluster.metrics().per_mds_throughput()[2].mean_in(20 * kSecond,
                                                        30 * kSecond);
  EXPECT_GT(rejoined_tput, 0.0);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
    if (i != 2) EXPECT_TRUE(cluster.mds(i).peer_alive(2)) << i;
  }

  // The incident traversed its whole lifecycle: crash, detection,
  // takeover, restart, journal-replay rejoin, re-marked up by a peer.
  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const FaultIncident& inc = incidents[0];
  EXPECT_TRUE(inc.has(inc.detected_at));
  EXPECT_TRUE(inc.has(inc.takeover_at));
  EXPECT_TRUE(inc.has(inc.restarted_at));
  EXPECT_TRUE(inc.has(inc.rejoined_at));
  EXPECT_TRUE(inc.has(inc.remarked_up_at));
  EXPECT_FALSE(inc.open);
  EXPECT_FALSE(cluster.mds(2).recovering());
  EXPECT_GT(
      cluster.fault_log().recovery_time_seconds(cluster.sim().now()).mean(),
      0.0);
}

TEST(Failover, DoubleFailureStillServes) {
  SimConfig cfg = failover_config();
  cfg.num_mds = 5;
  ClusterSim cluster(cfg);
  cluster.run_until(6 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(8 * kSecond);
  cluster.fail_mds(3);
  cluster.run_until(24 * kSecond);
  const double tput = cluster.metrics().avg_throughput().mean_in(
      17 * kSecond, 24 * kSecond);
  EXPECT_GT(tput, 50.0);
  // No delegation points to dead nodes.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  EXPECT_TRUE(subtree->delegations_of(1).empty());
  EXPECT_TRUE(subtree->delegations_of(3).empty());
}

TEST(Failover, HeartbeatlessCrashGoesThroughSurvivors) {
  // Without heartbeats nothing detects a crash, so every survivor is told
  // at the crash instant and the lowest runs the same takeover a
  // heartbeat coordinator would. Crashing node 0 makes node 1 the
  // coordinator.
  for (StrategyKind kind :
       {StrategyKind::kStaticSubtree, StrategyKind::kDirHash}) {
    for (bool warm : {true, false}) {
      SCOPED_TRACE(std::string(strategy_name(kind)) +
                   (warm ? " warm" : " cold"));
      SimConfig cfg = failover_config();
      cfg.strategy = kind;
      ClusterSim cluster(cfg);
      cluster.run_until(8 * kSecond);
      const MdsId victim = 0;
      const SimTime crash_at = cluster.sim().now();
      cluster.fail_mds(victim, warm);

      const FaultIncident& inc = cluster.fault_log().incidents().at(0);
      EXPECT_EQ(inc.detected_at, crash_at);
      EXPECT_EQ(inc.detected_by, 1);
      EXPECT_EQ(inc.takeover_at, crash_at);
      if (kind == StrategyKind::kStaticSubtree) {
        auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
        ASSERT_NE(subtree, nullptr);
        EXPECT_TRUE(subtree->delegations_of(victim).empty());
        EXPECT_NE(subtree->authority_of(cluster.tree().root()), victim);
      }
      for (MdsId i = 1; i < cluster.num_mds(); ++i) {
        EXPECT_FALSE(cluster.mds(i).peer_alive(victim)) << i;
        EXPECT_EQ(cluster.mds(i).stats().peer_down_detections, 1u) << i;
        EXPECT_EQ(cluster.mds(i).stats().takeovers, i == 1 ? 1u : 0u) << i;
      }

      // The heirs' journal replay lands after a log read and a CPU charge.
      cluster.run_until(10 * kSecond);
      std::uint64_t warm_items = 0;
      for (MdsId i = 1; i < cluster.num_mds(); ++i) {
        warm_items += cluster.mds(i).stats().takeover_warm_items;
      }
      if (warm) {
        EXPECT_GT(warm_items, 0u);
      } else {
        EXPECT_EQ(warm_items, 0u);
      }

      cluster.recover_mds(victim);
      for (MdsId i = 1; i < cluster.num_mds(); ++i) {
        EXPECT_TRUE(cluster.mds(i).peer_alive(victim)) << i;
      }
      EXPECT_EQ(cluster.fault_log().incidents().at(0).remarked_up_at,
                cluster.sim().now());
      // Its own journal replay finishes the rejoin and closes the incident.
      cluster.run_until(14 * kSecond);
      EXPECT_FALSE(cluster.fault_log().incidents().at(0).open);
    }
  }
}

TEST(Failover, WarmFlagBelongsToTheCrash) {
  // Crash A, then crash B cold before A's grace-delayed takeover runs. A's
  // takeover must use A's own flag: warm replays A's journal into its
  // heirs, and with A cold too nobody replays anything (so B's cold
  // takeover replayed nothing either).
  const MdsId a = 1, b = 3;
  auto warm_items = [&](bool a_warm) {
    SimConfig cfg = failover_config();
    cfg.num_mds = 5;
    ClusterSim cluster(cfg);
    cluster.run_until(6 * kSecond);
    cluster.fail_mds(a, a_warm);
    cluster.run_until(8 * kSecond);
    cluster.fail_mds(b, /*warm_takeover=*/false);
    cluster.run_until(24 * kSecond);

    const auto& incidents = cluster.fault_log().incidents();
    EXPECT_EQ(incidents.size(), 2u);
    for (const FaultIncident& inc : incidents) {
      EXPECT_TRUE(inc.has(inc.takeover_at)) << inc.node;
    }
    EXPECT_GT(incidents.at(0).takeover_at, incidents.at(1).crashed_at);
    std::uint64_t items = 0;
    for (MdsId i = 0; i < cluster.num_mds(); ++i) {
      items += cluster.mds(i).stats().takeover_warm_items;
    }
    return items;
  };
  EXPECT_GT(warm_items(true), 0u);
  EXPECT_EQ(warm_items(false), 0u);
}

TEST(FaultLog, RestartBeforeTakeoverEndsUnavailability) {
  // A restart inside the detection + grace window cancels the takeover:
  // the territory is back with its owner at the restart, so the outage
  // ends there, not at the end of the run.
  FaultLog log;
  log.note_crash(2, 10 * kSecond);
  log.note_detection(2, 0, 13 * kSecond);
  log.note_restart(2, 14 * kSecond);
  const Summary s = log.unavailability_seconds(40 * kSecond);
  ASSERT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

}  // namespace
}  // namespace mdsim
