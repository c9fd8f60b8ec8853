#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace mdsim {
namespace {

class TrafficControlTest : public ::testing::Test {
 protected:
  void run_for(ClusterSim& c, SimTime dt) {
    c.run_until(c.sim().now() + dt);
  }
};

TEST_F(TrafficControlTest, HotItemGetsReplicatedEverywhere) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 20.0;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* f = cluster.tree().files()[3];
  const MdsId auth = cluster.mds(0).authority_for(f);

  // Hammer the file at its authority until traffic control trips.
  for (int round = 0; round < 40; ++round) {
    client.send(auth, OpType::kStat, f);
    run_for(cluster, 2 * kMillisecond);
  }
  run_for(cluster, 100 * kMillisecond);
  EXPECT_TRUE(cluster.mds(auth).is_replicated_everywhere(f->ino()));
  // Every other node received an unsolicited replica of the hot item.
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_NE(cluster.mds(i).cache().peek(f->ino()), nullptr) << i;
    if (i != auth) {
      EXPECT_TRUE(cluster.mds(i).is_replicated_everywhere(f->ino()));
    }
  }
  // Hints now tell clients the item lives anywhere.
  client.send(auth, OpType::kStat, f);
  run_for(cluster, 50 * kMillisecond);
  bool found = false;
  for (const auto& h : client.last().hints) {
    if (h.ino == f->ino()) {
      EXPECT_TRUE(h.replicated_everywhere);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Any node can now serve reads for it locally.
  const MdsId other = (auth + 1) % cluster.num_mds();
  const std::uint64_t fwd_before = cluster.mds(other).stats().forwards;
  client.send(other, OpType::kStat, f);
  run_for(cluster, 50 * kMillisecond);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(client.last().served_by, other);
  EXPECT_EQ(cluster.mds(other).stats().forwards, fwd_before);
}

TEST_F(TrafficControlTest, ColdItemsPointAtAuthorityOnly) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* f = cluster.tree().files()[10];
  const MdsId auth = cluster.mds(0).authority_for(f);
  client.send(auth, OpType::kStat, f);
  run_for(cluster, kSecond);
  for (const auto& h : client.last().hints) {
    if (h.ino == f->ino()) {
      EXPECT_FALSE(h.replicated_everywhere);
      EXPECT_EQ(h.authority, auth);
    }
  }
}

TEST_F(TrafficControlTest, ReplicationCoolsDownAfterCrowd) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 20.0;
  cfg.mds.unreplicate_threshold = 5.0;
  cfg.mds.popularity_half_life = kSecond / 2;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* f = cluster.tree().files()[3];
  const MdsId auth = cluster.mds(0).authority_for(f);
  for (int round = 0; round < 40; ++round) {
    client.send(auth, OpType::kStat, f);
    run_for(cluster, 2 * kMillisecond);
  }
  run_for(cluster, 50 * kMillisecond);
  ASSERT_TRUE(cluster.mds(auth).is_replicated_everywhere(f->ino()));
  // Silence: popularity decays; the heartbeat sweep unreplicates.
  run_for(cluster, 20 * kSecond);
  EXPECT_FALSE(cluster.mds(auth).is_replicated_everywhere(f->ino()));
}

TEST_F(TrafficControlTest, DisabledControlNeverReplicates) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 20.0;
  cfg.mds.traffic_control_enabled = false;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* f = cluster.tree().files()[3];
  const MdsId auth = cluster.mds(0).authority_for(f);
  for (int round = 0; round < 60; ++round) {
    client.send(auth, OpType::kStat, f);
    run_for(cluster, 2 * kMillisecond);
  }
  run_for(cluster, 100 * kMillisecond);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_FALSE(cluster.mds(i).is_replicated_everywhere(f->ino()));
  }
  // Hints exist but never say "anywhere".
  for (const auto& h : client.last().hints) {
    EXPECT_FALSE(h.replicated_everywhere);
  }
}

TEST_F(TrafficControlTest, CreateStormFragmentsDirectoryThenMerges) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 15.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];
  const MdsId auth = cluster.mds(0).authority_for(dir);

  for (int i = 0; i < 60; ++i) {
    client.send(auth, OpType::kCreate, dir, "storm" + std::to_string(i));
    run_for(cluster, kMillisecond);
  }
  run_for(cluster, 100 * kMillisecond);
  EXPECT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_GE(cluster.dirfrag().fragment_events, 1u);

  // Fragmented: dentry authorities scatter across the cluster.
  std::set<MdsId> auths;
  for (FsNode* c : dir->children_list()) {
    auths.insert(cluster.mds(0).authority_for(c));
  }
  EXPECT_GT(auths.size(), 1u);

  // Storm over: the directory consolidates back onto one node.
  run_for(cluster, 30 * kSecond);
  EXPECT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_GE(cluster.dirfrag().merge_events, 1u);
  std::set<MdsId> auths_after;
  for (FsNode* c : dir->children_list()) {
    auths_after.insert(cluster.mds(0).authority_for(c));
  }
  EXPECT_EQ(auths_after.size(), 1u);
}

TEST_F(TrafficControlTest, FragmentedCreatesStillSucceed) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[1];
  const MdsId auth = cluster.mds(0).authority_for(dir);
  const std::size_t children_before = dir->child_count();
  int sent = 0;
  for (int i = 0; i < 50; ++i) {
    // Route by dentry hash once fragmented, like a real client would.
    MdsId to = auth;
    const std::string name = "frag" + std::to_string(i);
    if (cluster.dirfrag().is_fragmented(dir->ino())) {
      to = cluster.dirfrag().dentry_authority(dir->ino(), name);
    }
    client.send(to, OpType::kCreate, dir, name);
    ++sent;
    run_for(cluster, kMillisecond);
  }
  run_for(cluster, kSecond);
  int ok = 0;
  for (const auto& r : client.replies) ok += r.success ? 1 : 0;
  EXPECT_EQ(ok, sent);
  EXPECT_EQ(dir->child_count(), children_before + 50);
}

}  // namespace
}  // namespace mdsim
