#include <gtest/gtest.h>

#include "core/experiment.h"
#include "test_util.h"

namespace mdsim {
namespace {

SimConfig small_config(StrategyKind strategy, std::uint64_t seed = 42) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = 3;
  cfg.num_clients = 90;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 24;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  return cfg;
}

class ClusterEndToEnd : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ClusterEndToEnd, RunsAndServesLoad) {
  ClusterSim cluster(small_config(GetParam()));
  cluster.run();
  Metrics& m = cluster.metrics();
  const SimTime now = cluster.sim().now();

  EXPECT_GT(m.total_replies(), 1000u);
  EXPECT_GT(m.avg_mds_throughput(now), 100.0);
  EXPECT_LT(m.total_failures(), m.total_replies() / 5);
  EXPECT_GT(m.cluster_hit_rate(), 0.0);
  EXPECT_LE(m.cluster_hit_rate(), 1.0);
  EXPECT_GE(m.overall_forward_fraction(), 0.0);
  EXPECT_LT(m.overall_forward_fraction(), 0.95);
  const Summary latency = m.client_latency();
  EXPECT_GT(latency.count(), 0u);
  EXPECT_GT(latency.mean(), 0.0);
  EXPECT_LT(latency.mean(), 1.0);  // < 1 second on a healthy cluster
}

TEST_P(ClusterEndToEnd, CacheInvariantsHoldAtEnd) {
  ClusterSim cluster(small_config(GetParam()));
  cluster.run();
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << "mds " << i;
    EXPECT_LE(cluster.mds(i).cache().size(),
              cluster.mds(i).cache().capacity() + 64)
        << "mds " << i;
  }
}

TEST_P(ClusterEndToEnd, DeterministicForSameSeed) {
  ClusterSim a(small_config(GetParam(), 7));
  a.run();
  ClusterSim b(small_config(GetParam(), 7));
  b.run();
  EXPECT_EQ(a.metrics().total_replies(), b.metrics().total_replies());
  EXPECT_EQ(a.sim().events_executed(), b.sim().events_executed());
  for (int i = 0; i < a.num_mds(); ++i) {
    EXPECT_EQ(a.mds(i).stats().replies_sent, b.mds(i).stats().replies_sent);
    EXPECT_EQ(a.mds(i).cache().size(), b.mds(i).cache().size());
  }
}

TEST_P(ClusterEndToEnd, DifferentSeedsDiffer) {
  ClusterSim a(small_config(GetParam(), 1));
  a.run();
  ClusterSim b(small_config(GetParam(), 2));
  b.run();
  EXPECT_NE(a.metrics().total_replies(), b.metrics().total_replies());
}

TEST_P(ClusterEndToEnd, ReplicaRegistrationsMostlyConsistent) {
  ClusterSim cluster(small_config(GetParam()));
  cluster.run();
  // Every replica entry should be registered at its authority. In-flight
  // invalidations at the cutoff instant allow a small discrepancy.
  std::size_t replicas = 0;
  std::size_t unregistered = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    MdsNode& node = cluster.mds(i);
    node.cache().for_each([&](CacheEntry& e) {
      if (e.authoritative) return;
      ++replicas;
      const MdsId auth = node.authority_for(e.node);
      if (auth == node.id()) return;  // authority drifted (migration)
      if (cluster.mds(auth).replica_holders(e.node->ino()) == 0) {
        ++unregistered;
      }
    });
  }
  if (replicas > 20) {
    EXPECT_LT(unregistered, replicas / 4)
        << unregistered << " of " << replicas;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ClusterEndToEnd,
    ::testing::Values(StrategyKind::kDynamicSubtree,
                      StrategyKind::kStaticSubtree, StrategyKind::kDirHash,
                      StrategyKind::kFileHash, StrategyKind::kLazyHybrid),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return strategy_name(info.param);
    });

TEST(ClusterComparative, SubtreeBeatsFileGranularityUnderPressure) {
  // The paper's core performance claim (figure 2's ordering) at miniature
  // scale: with cache pressure, whole-directory strategies outperform
  // per-file I/O strategies.
  auto pressured = [](StrategyKind k) {
    SimConfig cfg = small_config(k);
    cfg.mds.cache_capacity = 600;  // ~12% of metadata per node
    cfg.mds.journal_capacity = 600;
    cfg.num_clients = 150;
    return cfg;
  };
  const RunResult subtree = run_one(pressured(StrategyKind::kStaticSubtree));
  const RunResult filehash = run_one(pressured(StrategyKind::kFileHash));
  EXPECT_GT(subtree.avg_mds_throughput, filehash.avg_mds_throughput);
  EXPECT_GT(subtree.hit_rate, filehash.hit_rate);
}

TEST(ClusterComparative, HashedStrategiesPayMorePrefixOverhead) {
  auto cfg = [](StrategyKind k) {
    SimConfig c = small_config(k);
    c.mds.cache_capacity = 800;
    return c;
  };
  const RunResult subtree = run_one(cfg(StrategyKind::kStaticSubtree));
  const RunResult filehash = run_one(cfg(StrategyKind::kFileHash));
  EXPECT_GT(filehash.prefix_fraction, subtree.prefix_fraction);
}

TEST(ClusterComparative, LazyHybridHasNoPrefixFootprint) {
  const RunResult lh = run_one(small_config(StrategyKind::kLazyHybrid));
  EXPECT_LT(lh.prefix_fraction, 0.02);
}

TEST(Experiment, BatchRunsAllConfigsInOrder) {
  std::vector<SimConfig> configs;
  for (int mds = 2; mds <= 4; ++mds) {
    for (StrategyKind k :
         {StrategyKind::kStaticSubtree, StrategyKind::kDirHash}) {
      SimConfig cfg = small_config(k);
      cfg.num_mds = mds;
      cfg.duration = 3 * kSecond;
      cfg.warmup = kSecond;
      configs.push_back(cfg);
    }
  }
  // Four jobs at a time, each on its own ClusterSim, against one at a time
  // on this thread: every field must match exactly.
  const auto results = run_batch(configs.size(), 4, [&](std::size_t i) {
    return run_one(configs[i]);
  });
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const RunResult serial = run_one(configs[i]);
    const RunResult& r = results[i];
    EXPECT_EQ(r.config.label(), serial.config.label());
    EXPECT_EQ(r.config.num_mds, configs[i].num_mds);
    EXPECT_EQ(r.avg_mds_throughput, serial.avg_mds_throughput);
    EXPECT_EQ(r.hit_rate, serial.hit_rate);
    EXPECT_EQ(r.prefix_fraction, serial.prefix_fraction);
    EXPECT_EQ(r.forward_fraction, serial.forward_fraction);
    EXPECT_EQ(r.mean_latency_ms, serial.mean_latency_ms);
    EXPECT_EQ(r.replies, serial.replies);
    EXPECT_EQ(r.failures, serial.failures);
    EXPECT_GT(r.replies, 100u);
  }
}

TEST(Workloads, ScientificClusterRuns) {
  SimConfig cfg = small_config(StrategyKind::kDynamicSubtree);
  cfg.workload = WorkloadKind::kScientific;
  cfg.fs.num_projects = 2;
  cfg.fs.project_dir_files = 300;
  cfg.scientific.compute_phase = kSecond;
  ClusterSim cluster(cfg);
  cluster.run();
  EXPECT_GT(cluster.metrics().total_replies(), 500u);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "");
  }
}

TEST(EngineCostModel, EventHeapTracksLiveEventsNotCancelRate) {
  // Figure 2's shape at two MDSs, run past the 5 s request timeout that
  // every op arms and nearly every op cancels. Heap keys, tombstones
  // included, must stay within a small multiple of the actors that own
  // live events (clients and MDSs); carrying each cancelled timeout for
  // its full 5 s instead grows the heap with the op rate (~100 k keys,
  // over 300x the actor count, here).
  SimConfig cfg = scaled_system_config(StrategyKind::kDynamicSubtree, 2);
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 8 * kSecond;
  cfg.warmup = 2 * kSecond;
  ASSERT_GT(cfg.duration - cfg.warmup, cfg.client_retry.request_timeout);
  ClusterSim cluster(cfg);
  cluster.run();
  const Simulation::Counters c = cluster.sim().counters();
  const std::uint64_t actors =
      static_cast<std::uint64_t>(cfg.num_clients + cfg.num_mds);
  EXPECT_GT(c.cancelled, 20 * actors);
  EXPECT_GT(c.compactions, 0u);
  EXPECT_LE(c.queued_peak, 4 * actors + Simulation::kCompactFloor)
      << "actors " << actors << ", compactions " << c.compactions;
}

}  // namespace
}  // namespace mdsim
