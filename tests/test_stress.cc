// Property / stress tests: whole-cluster invariants under adversarial
// configurations — tiny caches, repeated failures, migration churn, and
// every strategy. These are the "does the machine ever wedge or corrupt
// its bookkeeping" checks, complementing the per-module unit tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "test_util.h"

namespace mdsim {
namespace {

/// No client may be wedged: at most one op in flight each, and the
/// completed counts must track the issued counts.
void expect_clients_live(ClusterSim& cluster) {
  for (int c = 0; c < cluster.num_clients(); ++c) {
    const ClientStats& s = cluster.client(c).stats();
    EXPECT_LE(s.ops_completed, s.ops_issued) << "client " << c;
    EXPECT_LE(s.ops_issued - s.ops_completed, 1u + s.retries)
        << "client " << c;
  }
}

void expect_caches_sane(ClusterSim& cluster) {
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << "mds " << i;
  }
}

class TinyCacheStress : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(TinyCacheStress, SurvivesSevereCachePressure) {
  SimConfig cfg;
  cfg.strategy = GetParam();
  cfg.num_mds = 4;
  cfg.num_clients = 80;
  cfg.fs.num_users = 24;
  cfg.fs.nodes_per_user = 250;
  cfg.mds.cache_capacity = 150;  // ~2% of the per-node metadata share
  cfg.mds.journal_capacity = 150;
  cfg.duration = 8 * kSecond;
  cfg.warmup = 2 * kSecond;
  ClusterSim cluster(cfg);
  cluster.run();
  EXPECT_GT(cluster.metrics().total_replies(), 200u);
  expect_caches_sane(cluster);
  expect_clients_live(cluster);
  // Under this pressure caches must be thrashing, not wedged.
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_GT(cluster.mds(i).cache().stats().evictions, 50u) << i;
    EXPECT_LE(cluster.mds(i).cache().size(),
              cluster.mds(i).cache().capacity() + 64);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, TinyCacheStress,
    ::testing::Values(StrategyKind::kDynamicSubtree,
                      StrategyKind::kStaticSubtree, StrategyKind::kDirHash,
                      StrategyKind::kFileHash, StrategyKind::kLazyHybrid),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      return strategy_name(info.param);
    });

class FailureChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureChaos, RepeatedKillAndRecoverNeverWedges) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 5;
  cfg.num_clients = 100;
  cfg.seed = GetParam();
  cfg.fs.seed = GetParam();
  cfg.fs.num_users = 30;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 40 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.client_retry.request_timeout = 500 * kMillisecond;
  ClusterSim cluster(cfg);

  Rng rng(GetParam(), 0xc4a05);
  SimTime t = 4 * kSecond;
  MdsId down = kInvalidMds;
  for (int round = 0; round < 6; ++round) {
    cluster.run_until(t);
    if (down == kInvalidMds) {
      // Never kill node 0's last survivor; one down at a time.
      down = static_cast<MdsId>(1 + rng.uniform(cfg.num_mds - 1));
      cluster.fail_mds(down, rng.bernoulli(0.5));
    } else {
      cluster.recover_mds(down);
      down = kInvalidMds;
    }
    t += 5 * kSecond;
  }
  cluster.run_until(cfg.duration);

  expect_caches_sane(cluster);
  expect_clients_live(cluster);
  // The cluster kept making progress in the final stretch.
  EXPECT_GT(cluster.metrics().avg_throughput().mean_in(35 * kSecond,
                                                       40 * kSecond),
            50.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureChaos,
                         ::testing::Values(101u, 202u, 303u));

TEST(MigrationChurn, RepeatedForcedMigrationsStayConsistent) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.num_clients = 60;
  cfg.num_mds = 4;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 200;
  cfg.mds.min_migration_items = 2;
  ClusterSim cluster(cfg);
  cluster.run_until(4 * kSecond);

  // Bounce the largest home around the cluster.
  FsNode* home = cluster.namespace_info().user_roots[0];
  for (FsNode* u : cluster.namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  SimTime t = cluster.sim().now();
  for (int hop = 0; hop < 8; ++hop) {
    const MdsId owner = cluster.mds(0).authority_for(home);
    const MdsId target =
        static_cast<MdsId>((owner + 1 + hop) % cluster.num_mds());
    if (target != owner) {
      cluster.mds(owner).migrate_subtree(home, target);
    }
    t += 2 * kSecond;
    cluster.run_until(t);
    // Exactly one authority at any quiescent point.
    const MdsId now_owner = cluster.mds(0).authority_for(home);
    EXPECT_GE(now_owner, 0);
    EXPECT_LT(now_owner, cluster.num_mds());
    for (int i = 0; i < cluster.num_mds(); ++i) {
      EXPECT_EQ(cluster.mds(i).frozen_subtrees(), 0u) << "hop " << hop;
    }
    // Full structural audit after every migration phase: counters, LRU
    // links, index and sidecar linkage must all still be consistent.
    expect_caches_sane(cluster);
  }
  // Clients kept completing ops throughout the churn.
  std::uint64_t completed = 0;
  for (int c = 0; c < cluster.num_clients(); ++c) {
    completed += cluster.client(c).stats().ops_completed;
  }
  EXPECT_GT(completed, 1000u);
}

TEST(RenameChurn, CachedRenamesUnderEvictionKeepListsConsistent) {
  // Files cached on several nodes are renamed across directories while
  // tiny caches evict under client load: every cache's per-parent child
  // lists and stray list must stay exact throughout.
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree, 4, 11);
  cfg.num_clients = 60;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 200;
  cfg.mds.cache_capacity = 150;
  cfg.mds.journal_capacity = 150;
  cfg.mds.dirfrag_temp_threshold = 20.0;  // let dirfrag sweeps run too
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  cluster.run_until(kSecond);
  Rng rng(5);
  std::size_t max_strays = 0;
  for (int round = 0; round < 60; ++round) {
    const auto& files = cluster.tree().files();
    const auto& dirs = cluster.tree().dirs();
    FsNode* f = files[rng.uniform(files.size())];
    FsNode* to = dirs[rng.uniform(dirs.size())];
    const std::uint32_t uid = f->inode().perms.uid;
    for (MdsId i = 0; i < cluster.num_mds(); ++i) {
      client.send(i, OpType::kStat, f, "", nullptr, uid);
    }
    cluster.run_until(cluster.sim().now() + 20 * kMillisecond);
    client.send(cluster.mds(0).authority_for(f), OpType::kRename, f,
                "churn" + std::to_string(round), to, uid);
    cluster.run_until(cluster.sim().now() + 30 * kMillisecond);
    for (MdsId i = 0; i < cluster.num_mds(); ++i) {
      max_strays = std::max(max_strays, cluster.mds(i).cache().stray_count());
    }
    if (round % 10 == 0) expect_caches_sane(cluster);
  }
  cluster.run_until(cluster.sim().now() + 2 * kSecond);
  expect_caches_sane(cluster);
  expect_clients_live(cluster);
  EXPECT_GT(max_strays, 0u);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_GT(cluster.mds(i).cache().stats().evictions, 0u) << i;
  }
}

TEST(WorkloadSoup, AllWorkloadsRunOnAllStrategiesBriefly) {
  for (WorkloadKind wk :
       {WorkloadKind::kGeneral, WorkloadKind::kScientific,
        WorkloadKind::kShifting}) {
    for (StrategyKind sk :
         {StrategyKind::kDynamicSubtree, StrategyKind::kFileHash}) {
      if (wk == WorkloadKind::kShifting &&
          sk != StrategyKind::kDynamicSubtree) {
        continue;  // shift preset needs a subtree partition
      }
      SimConfig cfg;
      cfg.strategy = sk;
      cfg.workload = wk;
      cfg.num_mds = 3;
      cfg.num_clients = 45;
      cfg.fs.num_users = 12;
      cfg.fs.nodes_per_user = 120;
      cfg.fs.num_projects = wk == WorkloadKind::kScientific ? 1 : 0;
      cfg.shifting.shift_at = 2 * kSecond;
      cfg.duration = 5 * kSecond;
      cfg.warmup = kSecond;
      ClusterSim cluster(cfg);
      cluster.run();
      EXPECT_GT(cluster.metrics().total_replies(), 100u)
          << workload_name(wk) << "/" << strategy_name(sk);
      expect_caches_sane(cluster);
    }
  }
}

TEST(LongRun, HalfMinuteOfEverythingHoldsInvariants) {
  SimConfig cfg = shift_config(StrategyKind::kDynamicSubtree);
  cfg.num_mds = 6;
  cfg.fs.num_users = 96;
  cfg.num_clients = 240;
  cfg.duration = 30 * kSecond;
  cfg.shifting.shift_at = 10 * kSecond;
  cfg.mds.dirfrag_temp_threshold = 200.0;  // let dirfrag engage too
  ClusterSim cluster(cfg);
  cluster.run_until(20 * kSecond);
  expect_caches_sane(cluster);
  cluster.fail_mds(3);
  cluster.run_until(25 * kSecond);
  expect_caches_sane(cluster);
  cluster.recover_mds(3);
  cluster.run_until(30 * kSecond);
  expect_caches_sane(cluster);
  expect_clients_live(cluster);
  EXPECT_LT(cluster.metrics().total_failures(),
            cluster.metrics().total_replies() / 3);
}

}  // namespace
}  // namespace mdsim
