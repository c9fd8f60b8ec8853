// Protocol edge cases: op-level semantics the big workloads exercise only
// statistically — pinned here deterministically.
#include <gtest/gtest.h>

#include "test_util.h"

namespace mdsim {
namespace {

class ProtocolEdgeTest : public ::testing::Test {
 protected:
  void build(StrategyKind strategy = StrategyKind::kDynamicSubtree) {
    cluster = std::make_unique<ClusterSim>(manual_config(strategy));
    client.attach(*cluster);
    tree = &cluster->tree();
  }
  void run_for(SimTime dt) { cluster->run_until(cluster->sim().now() + dt); }
  MdsId auth_of(FsNode* n) { return cluster->mds(0).authority_for(n); }

  std::unique_ptr<ClusterSim> cluster;
  TestClient client;
  FsTree* tree = nullptr;
};

TEST_F(ProtocolEdgeTest, StatAndReaddirOfRoot) {
  build();
  client.send(auth_of(tree->root()), OpType::kStat, tree->root());
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  client.send(auth_of(tree->root()), OpType::kReaddir, tree->root());
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
}

TEST_F(ProtocolEdgeTest, ReaddirOfFileFails) {
  build();
  FsNode* f = find_world_readable_file(*tree);
  ASSERT_NE(f, nullptr);
  client.send(auth_of(f), OpType::kReaddir, f);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
}

TEST_F(ProtocolEdgeTest, RmdirOfNonEmptyDirFails) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[0];
  ASSERT_GT(dir->child_count(), 0u);
  client.send(auth_of(dir), OpType::kRmdir, dir);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
  EXPECT_TRUE(tree->alive(dir));
}

TEST_F(ProtocolEdgeTest, MkdirThenRmdirRoundTrip) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[1];
  client.send(auth_of(dir), OpType::kMkdir, dir, "fresh_dir");
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  FsNode* fresh = dir->child("fresh_dir");
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(fresh->is_dir());
  client.send(auth_of(fresh), OpType::kRmdir, fresh);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(dir->child("fresh_dir"), nullptr);
}

TEST_F(ProtocolEdgeTest, RenameWithinDirectory) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[2];
  client.send(auth_of(dir), OpType::kCreate, dir, "before_name");
  run_for(kSecond);
  FsNode* f = dir->child("before_name");
  ASSERT_NE(f, nullptr);
  const InodeId ino = f->ino();
  client.send(auth_of(f), OpType::kRename, f, "after_name", dir);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(dir->child("before_name"), nullptr);
  ASSERT_NE(dir->child("after_name"), nullptr);
  EXPECT_EQ(dir->child("after_name")->ino(), ino);
}

TEST_F(ProtocolEdgeTest, RenameOntoExistingNameFails) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[2];
  client.send(auth_of(dir), OpType::kCreate, dir, "occupant");
  run_for(kSecond);
  client.send(auth_of(dir), OpType::kCreate, dir, "mover");
  run_for(kSecond);
  FsNode* mover = dir->child("mover");
  ASSERT_NE(mover, nullptr);
  client.send(auth_of(mover), OpType::kRename, mover, "occupant", dir);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
  EXPECT_NE(dir->child("mover"), nullptr);
}

TEST_F(ProtocolEdgeTest, UnlinkOfHardLinkedFileFails) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[3];
  client.send(auth_of(dir), OpType::kCreate, dir, "linked");
  run_for(kSecond);
  FsNode* f = dir->child("linked");
  ASSERT_NE(f, nullptr);
  FsNode* other = cluster->namespace_info().user_roots[4];
  client.send(auth_of(other), OpType::kLink, other, "hl", f);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  // The primary cannot be unlinked while the remote link exists.
  client.send(auth_of(f), OpType::kUnlink, f);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
  EXPECT_TRUE(tree->alive(f));
}

TEST_F(ProtocolEdgeTest, ChmodTogglesAccessibility) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[5];
  if (dir->inode().perms.mode != 0755) GTEST_SKIP() << "home is private";
  FsNode* f = nullptr;
  for (FsNode* c : dir->children_list()) {
    if (!c->is_dir()) f = c;
  }
  if (f == nullptr) GTEST_SKIP() << "no top-level file";
  // A stranger can stat while the dir is world-traversable...
  client.send(auth_of(f), OpType::kStat, f, "", nullptr, 9999);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  // ...chmod flips it private...
  client.send(auth_of(dir), OpType::kChmod, dir, "", nullptr,
              dir->inode().perms.uid);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  EXPECT_EQ(dir->inode().perms.mode, 0700);
  client.send(auth_of(f), OpType::kStat, f, "", nullptr, 9999);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
  // ...but the owner still gets through.
  client.send(auth_of(f), OpType::kStat, f, "", nullptr,
              dir->inode().perms.uid);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
}

TEST_F(ProtocolEdgeTest, SetattrBumpsVersionAndInvalidates) {
  build();
  FsNode* f = find_world_readable_file(*tree, 7);
  ASSERT_NE(f, nullptr);
  const std::uint64_t v = f->inode().version;
  client.send(auth_of(f), OpType::kSetattr, f);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  EXPECT_GT(f->inode().version, v);
}

TEST_F(ProtocolEdgeTest, WritebackBatchingCoalescesPerDirectory) {
  // 120 creates into one directory must cost far fewer tier-2 writes than
  // 120 transactions (shared B+tree nodes, 50 ms batch window).
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.journal_capacity = 16;  // everything expires promptly
  cfg.mds.dirfrag_enabled = false;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  tree = &cluster->tree();
  FsNode* dir = cluster->namespace_info().user_roots[6];
  const MdsId auth = auth_of(dir);
  const std::uint64_t writes_before = cluster->mds(auth).disk().writes();
  for (int i = 0; i < 120; ++i) {
    client.send(auth, OpType::kCreate, dir, "wb" + std::to_string(i));
    run_for(2 * kMillisecond);
  }
  run_for(kSecond);
  const std::uint64_t writes = cluster->mds(auth).disk().writes() -
                               writes_before;
  EXPECT_GT(writes, 0u);
  EXPECT_LT(writes, 40u);  // ~104 expiries coalesced into batches
}

TEST_F(ProtocolEdgeTest, ForwardedCreateStillReturnsHints) {
  build();
  FsNode* dir = cluster->namespace_info().user_roots[7];
  const MdsId wrong = (auth_of(dir) + 1) % cluster->num_mds();
  client.send(wrong, OpType::kCreate, dir, "via_forward");
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  EXPECT_EQ(client.last().hops, 1);
  EXPECT_FALSE(client.last().hints.empty());
  EXPECT_NE(dir->child("via_forward"), nullptr);
}

TEST_F(ProtocolEdgeTest, LazyHybridUpdatesCostTargetFetch) {
  build(StrategyKind::kLazyHybrid);
  FsNode* f = find_world_readable_file(*tree, 11);
  ASSERT_NE(f, nullptr);
  const MdsId auth = auth_of(f);
  const std::uint64_t reads_before = cluster->mds(auth).disk().reads();
  client.send(auth, OpType::kSetattr, f);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  // The cold target had to be fetched (one scattered-inode read) before
  // the update could be serialized.
  EXPECT_GT(cluster->mds(auth).disk().reads(), reads_before);
}

}  // namespace
}  // namespace mdsim
