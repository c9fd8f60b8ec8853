#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace mdsim {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  void build(SimTime heartbeat_period = kSecond) {
    SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
    cfg.mds.min_migration_items = 2;
    cfg.mds.heartbeat_period = heartbeat_period;
    cluster = std::make_unique<ClusterSim>(cfg);
    client.attach(*cluster);
  }

  void run_for(SimTime dt) { cluster->run_until(cluster->sim().now() + dt); }

  /// Warm the authority's cache for every item under `root`.
  void warm_subtree(FsNode* root) {
    std::vector<FsNode*> stack{root};
    while (!stack.empty()) {
      FsNode* n = stack.back();
      stack.pop_back();
      client.send(cluster->mds(0).authority_for(n),
                  n->is_dir() ? OpType::kReaddir : OpType::kStat, n);
      if (n->is_dir()) {
        for (FsNode* c : n->children_list()) stack.push_back(c);
      }
    }
    run_for(5 * kSecond);
  }

  std::unique_ptr<ClusterSim> cluster;
  TestClient client;
};

TEST_F(MigrationTest, ForcedMigrationTransfersAuthorityAndState) {
  build();
  // Use the largest home so the transferred state is non-trivial.
  FsNode* home = cluster->namespace_info().user_roots[0];
  for (FsNode* u : cluster->namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  warm_subtree(home);

  std::vector<InodeId> cached_before;
  cluster->mds(src).cache().for_each([&](CacheEntry& e) {
    if (e.authoritative && FsTree::is_ancestor_of(home, e.node)) {
      cached_before.push_back(e.node->ino());
    }
  });
  ASSERT_GT(cached_before.size(), 5u);

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  run_for(2 * kSecond);

  // Authority flipped cluster-wide.
  EXPECT_EQ(cluster->mds(0).authority_for(home), dst);
  for (FsNode* c : home->children_list()) {
    EXPECT_EQ(cluster->mds(0).authority_for(c), dst);
  }
  // All transferred state landed in the importer's cache — no disk I/O
  // lost items (the point of transferring active state, section 4.3).
  for (InodeId ino : cached_before) {
    EXPECT_NE(cluster->mds(dst).cache().peek(ino), nullptr) << ino;
  }
  // Exporter dropped its copies (modulo anchoring leftovers).
  std::size_t still_there = 0;
  for (InodeId ino : cached_before) {
    if (cluster->mds(src).cache().peek(ino) != nullptr) ++still_there;
  }
  EXPECT_LT(still_there, cached_before.size() / 4);

  EXPECT_EQ(cluster->mds(src).stats().migrations_out, 1u);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_in, 1u);
  EXPECT_GE(cluster->mds(dst).stats().items_migrated_in,
            cached_before.size() - 2);
  EXPECT_TRUE(cluster->mds(dst).imported_subtrees().count(home->ino()) > 0);
  EXPECT_EQ(cluster->mds(src).frozen_subtrees(), 0u);
}

TEST_F(MigrationTest, ImporterAnchorsPrefixInodes) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[1];
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  warm_subtree(home);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  run_for(2 * kSecond);
  // The importer caches the subtree root's ancestors as prefixes (the
  // per-delegation overhead the paper describes).
  for (FsNode* a : home->ancestry()) {
    EXPECT_NE(cluster->mds(dst).cache().peek(a->ino()), nullptr)
        << a->path();
  }
  EXPECT_EQ(cluster->mds(dst).cache().check_invariants(), "");
  EXPECT_EQ(cluster->mds(src).cache().check_invariants(), "");
}

TEST_F(MigrationTest, RequestsDeferredWhileFrozenThenServed) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[2];
  FsNode* file = nullptr;
  for (FsNode* c : home->children_list()) {
    if (!c->is_dir()) file = c;
  }
  if (file == nullptr) GTEST_SKIP() << "home has no top-level file";
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  warm_subtree(home);

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  // The subtree is frozen the instant the migration starts; a request
  // arriving during the double-commit is deferred, not dropped.
  client.send(src, OpType::kStat, file);
  const std::size_t replies_before = client.replies.size();
  run_for(200 * kMicrosecond);
  EXPECT_EQ(cluster->mds(src).deferred_requests(), 1u);
  EXPECT_EQ(client.replies.size(), replies_before);
  run_for(2 * kSecond);
  EXPECT_EQ(cluster->mds(src).deferred_requests(), 0u);
  ASSERT_GT(client.replies.size(), replies_before);
  EXPECT_TRUE(client.last().success);
  // Served by the new authority after the commit.
  EXPECT_EQ(client.last().served_by, dst);
}

TEST_F(MigrationTest, MigrationRefusedWhenTooSmallOrBusy) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[3];
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  // Nothing cached yet: fewer than min_migration_items -> refused.
  EXPECT_FALSE(cluster->mds(src).migrate_subtree(home, dst));
  // Wrong owner refused.
  EXPECT_FALSE(cluster->mds(dst).migrate_subtree(home, src));
  // Self-migration refused.
  warm_subtree(home);
  EXPECT_FALSE(cluster->mds(src).migrate_subtree(home, src));
  // While one migration is in flight, a second is refused.
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  FsNode* other = cluster->namespace_info().user_roots[4];
  if (cluster->mds(0).authority_for(other) == src) {
    EXPECT_FALSE(cluster->mds(src).migrate_subtree(other, dst));
  }
  run_for(2 * kSecond);
}

// The importer's two refusals after it accepted a prepare. Each nacks the
// exporter at once: the exporter unfreezes and keeps the subtree well
// before its 3 s watchdog, and the importer never installs or rolls back.
void expect_refused(ClusterSim& cluster, MdsId src, MdsId dst) {
  EXPECT_FALSE(cluster.mds(dst).migrating());
  EXPECT_EQ(cluster.mds(dst).stats().migrations_in, 0u);
  EXPECT_EQ(cluster.mds(dst).stats().items_migrated_in, 0u);
  EXPECT_EQ(cluster.mds(dst).stats().migrations_rolled_back, 0u);
  EXPECT_FALSE(cluster.mds(src).migrating());
  EXPECT_EQ(cluster.mds(src).frozen_subtrees(), 0u);
  EXPECT_EQ(cluster.mds(src).stats().migrations_out, 0u);
  EXPECT_EQ(cluster.mds(src).stats().migration_timeouts, 0u);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
}

TEST_F(MigrationTest, ImporterRefusesWhenRootUnlinkedDuringUnpack) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[0];
  for (FsNode* u : cluster->namespace_info().user_roots) {
    if (u->subtree_size() > home->subtree_size()) home = u;
  }
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  warm_subtree(home);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  for (int i = 0; i < 100000 && !cluster->mds(dst).migrating(); ++i) {
    run_for(from_micros(1));
  }
  // The prepare just landed; its unpack charge (2 us an item) is queued.
  ASSERT_TRUE(cluster->mds(dst).migrating());
  std::vector<FsNode*> doomed{home};
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    for (FsNode* c : doomed[i]->children_list()) doomed.push_back(c);
  }
  for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
    ASSERT_TRUE(cluster->tree().remove(*it));
  }
  run_for(100 * kMillisecond);
  expect_refused(*cluster, src, dst);
}

TEST_F(MigrationTest, ImporterRefusesWhenAnchorFetchFails) {
  // Short heartbeats: the lost prefix fetch times out (2 s, swept on a
  // heartbeat) well before the exporter's 3 s watchdog.
  build(/*heartbeat_period=*/250 * kMillisecond);
  // A directory inside a home owned by `holder`, first handed to `src`.
  // The importer has never cached that home, so anchoring the directory
  // needs the home as a prefix replica from `holder`.
  FsNode* home = cluster->namespace_info().user_roots[2];
  const MdsId holder = cluster->mds(0).authority_for(home);
  const MdsId src = (holder + 1) % cluster->num_mds();
  const MdsId dst = (holder + 2) % cluster->num_mds();
  FsNode* dir = nullptr;
  for (FsNode* c : home->children_list()) {
    if (c->is_dir() && (dir == nullptr ||
                        c->subtree_size() > dir->subtree_size())) {
      dir = c;
    }
  }
  ASSERT_NE(dir, nullptr);
  warm_subtree(dir);
  ASSERT_TRUE(cluster->mds(holder).migrate_subtree(dir, src));
  run_for(2 * kSecond);
  ASSERT_EQ(cluster->mds(0).authority_for(dir), src);
  warm_subtree(dir);
  ASSERT_EQ(cluster->mds(dst).cache().peek(home->ino()), nullptr);
  ASSERT_NE(cluster->mds(dst).cache().peek(home->parent()->ino()), nullptr);

  // Lose the importer's replica request to the holder, and nothing else:
  // the cut lasts until that request is sent.
  const std::uint64_t requests = cluster->mds(dst).stats().replica_requests_sent;
  cluster->network().cut_link(dst, holder);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(dir, dst));
  for (int i = 0; i < 100000 &&
                  cluster->mds(dst).stats().replica_requests_sent == requests;
       ++i) {
    run_for(from_micros(10));
  }
  ASSERT_EQ(cluster->mds(dst).stats().replica_requests_sent, requests + 1);
  cluster->network().restore_link(dst, holder);

  run_for(2500 * kMillisecond);
  EXPECT_EQ(cluster->mds(dst).stats().replica_fetch_timeouts, 1u);
  expect_refused(*cluster, src, dst);
  EXPECT_EQ(cluster->mds(0).authority_for(dir), src);
}

TEST_F(MigrationTest, ReDelegationPrefersImportedTrees) {
  build();
  FsNode* home = cluster->namespace_info().user_roots[5];
  const MdsId src = cluster->mds(0).authority_for(home);
  const MdsId dst = (src + 1) % cluster->num_mds();
  warm_subtree(home);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  run_for(2 * kSecond);
  ASSERT_TRUE(cluster->mds(dst).imported_subtrees().count(home->ino()) > 0);
  // The importer can hand the whole tree on (its items are resident).
  const MdsId third = (dst + 1) % cluster->num_mds();
  ASSERT_TRUE(cluster->mds(dst).migrate_subtree(home, third));
  run_for(2 * kSecond);
  EXPECT_EQ(cluster->mds(0).authority_for(home), third);
  EXPECT_FALSE(cluster->mds(dst).imported_subtrees().count(home->ino()) > 0);
  EXPECT_TRUE(cluster->mds(third).imported_subtrees().count(home->ino()) >
              0);
}

TEST_F(MigrationTest, UtilizationVectorMetricAlsoRebalances) {
  // The paper's sketched alternative metric (section 4.3): equalize the
  // bottleneck resource. It must react to the same skew the weighted
  // metric does.
  SimConfig cfg = shift_config(StrategyKind::kDynamicSubtree);
  cfg.num_mds = 4;
  cfg.fs.num_users = 48;
  cfg.num_clients = 160;
  cfg.shifting.shift_at = 3 * kSecond;
  cfg.duration = 16 * kSecond;
  cfg.warmup = kSecond;
  cfg.mds.balancer_metric = MdsParams::BalancerMetric::kUtilizationVector;
  ClusterSim cluster(cfg);
  cluster.run();
  std::uint64_t total_migrations = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    total_migrations += cluster.mds(i).stats().migrations_out;
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
  EXPECT_GE(total_migrations, 1u);
  EXPECT_GT(cluster.metrics().total_replies(), 1000u);
}

TEST_F(MigrationTest, BalancerRebalancesSkewedLoad) {
  // End-to-end: shifted clients overload one node; the dynamic balancer
  // must migrate at least one subtree away from it (figure 5's mechanism).
  SimConfig cfg = shift_config(StrategyKind::kDynamicSubtree);
  cfg.num_mds = 4;
  cfg.fs.num_users = 48;
  cfg.num_clients = 160;
  cfg.shifting.shift_at = 3 * kSecond;
  cfg.duration = 16 * kSecond;
  cfg.warmup = kSecond;
  ClusterSim cluster(cfg);
  cluster.run();
  std::uint64_t total_migrations = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    total_migrations += cluster.mds(i).stats().migrations_out;
  }
  EXPECT_GE(total_migrations, 1u);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
}

}  // namespace
}  // namespace mdsim
