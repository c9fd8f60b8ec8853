#include <gtest/gtest.h>

#include "test_util.h"

namespace mdsim {
namespace {

/// First file found under `root` (depth-first).
FsNode* find_file_under(FsNode* root) {
  std::vector<FsNode*> stack{root};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    if (!n->is_dir()) return n;
    for (FsNode* c : n->children_list()) stack.push_back(c);
  }
  return nullptr;
}

class MdsProtocolTest : public ::testing::Test {
 protected:
  void build(StrategyKind strategy) {
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

TEST_F(MdsProtocolTest, StatServedByAuthorityWithoutForwarding) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[0]);
  ASSERT_NE(f, nullptr);
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kStat, f);
  run_for(kSecond);
  ASSERT_EQ(client.replies.size(), 1u);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(client.last().hops, 0);
  EXPECT_EQ(client.last().served_by, auth);
  EXPECT_NE(cluster->mds(auth).cache().peek(f->ino()), nullptr);
  EXPECT_EQ(cluster->mds(auth).stats().forwards, 0u);
}

TEST_F(MdsProtocolTest, MisdirectedRequestIsForwarded) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[0]);
  const MdsId auth = auth_of(f);
  const MdsId wrong = (auth + 1) % cluster->num_mds();
  client.send(wrong, OpType::kStat, f);
  run_for(kSecond);
  ASSERT_EQ(client.replies.size(), 1u);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(client.last().hops, 1);
  EXPECT_EQ(client.last().served_by, auth);
  EXPECT_EQ(cluster->mds(wrong).stats().forwards, 1u);
}

TEST_F(MdsProtocolTest, RepliesCarryDistributionHints) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[1]);
  client.send(auth_of(f), OpType::kStat, f);
  run_for(kSecond);
  const auto& hints = client.last().hints;
  ASSERT_EQ(hints.size(), f->ancestry().size());
  for (const auto& h : hints) {
    EXPECT_GE(h.authority, 0);
    EXPECT_LT(h.authority, cluster->num_mds());
  }
  EXPECT_EQ(hints.back().ino, f->ino());
  EXPECT_EQ(hints.front().ino, kRootInode);
}

TEST_F(MdsProtocolTest, CreateAppliesToNamespaceAndJournal) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* dir = cluster->namespace_info().user_roots[2];
  const MdsId auth = auth_of(dir);
  const std::uint64_t journaled_before =
      cluster->mds(auth).stats().updates_journaled;
  client.send(auth, OpType::kCreate, dir, "brand_new_file");
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  FsNode* created = dir->child("brand_new_file");
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(client.last().result_ino, created->ino());
  EXPECT_GT(cluster->mds(auth).stats().updates_journaled, journaled_before);
  EXPECT_TRUE(cluster->mds(auth).journal().contains(created->ino()));
  // The directory object in the shared store knows the new dentry.
  DirBTree* obj = cluster->object_store().object_for_testing(dir);
  ASSERT_NE(obj, nullptr);
  EXPECT_NE(obj->find("brand_new_file", nullptr), nullptr);
}

TEST_F(MdsProtocolTest, DuplicateCreateFails) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* dir = cluster->namespace_info().user_roots[2];
  const MdsId auth = auth_of(dir);
  client.send(auth, OpType::kCreate, dir, "dup");
  run_for(kSecond);
  client.send(auth, OpType::kCreate, dir, "dup");
  run_for(kSecond);
  ASSERT_EQ(client.replies.size(), 2u);
  EXPECT_TRUE(client.replies[0].success);
  EXPECT_FALSE(client.replies[1].success);
}

TEST_F(MdsProtocolTest, UnlinkRemovesAndFailsSecondTime) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[3]);
  const InodeId ino = f->ino();
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kUnlink, f);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  EXPECT_EQ(tree->by_ino(ino), nullptr);
  client.send(auth, OpType::kStat, tree->root());  // sanity op still works
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
}

TEST_F(MdsProtocolTest, PermissionDeniedOnPrivateDirs) {
  build(StrategyKind::kDynamicSubtree);
  // Find a private (0700) directory with a file inside.
  FsNode* priv = nullptr;
  FsNode* f = nullptr;
  tree->visit([&](FsNode* n) {
    if (priv != nullptr || n->is_dir() || n->depth() < 3) return;
    for (FsNode* a : n->ancestry()) {
      if (a->is_dir() && a->inode().perms.mode == 0700 && a->depth() >= 2) {
        priv = a;
        f = n;
        return;
      }
    }
  });
  if (f == nullptr) GTEST_SKIP() << "namespace has no private dirs";
  // The owner can stat it; a stranger cannot traverse.
  client.send(auth_of(f), OpType::kStat, f, "", nullptr,
              priv->inode().perms.uid);
  run_for(kSecond);
  EXPECT_TRUE(client.last().success);
  client.send(auth_of(f), OpType::kStat, f, "", nullptr, 99999);
  run_for(kSecond);
  EXPECT_FALSE(client.last().success);
}

TEST_F(MdsProtocolTest, ReaddirPrefetchesEmbeddedInodes) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* dir = cluster->namespace_info().user_roots[4];
  ASSERT_GT(dir->child_count(), 2u);
  const MdsId auth = auth_of(dir);
  client.send(auth, OpType::kReaddir, dir);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  // Every child this node is responsible for is now cached.
  MdsNode& node = cluster->mds(auth);
  for (FsNode* child : dir->children_list()) {
    if (node.authority_for(child) == auth) {
      EXPECT_NE(node.cache().peek(child->ino()), nullptr) << child->path();
    }
  }
  // Subsequent stats are pure cache hits — no further disk reads.
  const std::uint64_t reads_before = node.disk().reads();
  for (FsNode* child : dir->children_list()) {
    client.send(auth, OpType::kStat, child);
  }
  run_for(kSecond);
  EXPECT_EQ(node.disk().reads(), reads_before);
}

TEST_F(MdsProtocolTest, FileGranularityPaysPerInodeFetch) {
  build(StrategyKind::kFileHash);
  FsNode* dir = cluster->namespace_info().user_roots[4];
  ASSERT_GT(dir->child_count(), 2u);
  // readdir at the dir's authority does NOT prefetch inodes; each stat
  // then costs its own fetch at the file's (scattered) authority.
  std::uint64_t reads_before = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    reads_before += cluster->mds(i).disk().reads();
  }
  int files_statted = 0;
  for (FsNode* child : dir->children_list()) {
    if (child->is_dir()) continue;
    client.send(cluster->mds(0).authority_for(child), OpType::kStat, child);
    ++files_statted;
  }
  run_for(2 * kSecond);
  std::uint64_t reads_after = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    reads_after += cluster->mds(i).disk().reads();
  }
  // At least one disk transaction per statted file (plus prefix fetches).
  EXPECT_GE(reads_after - reads_before,
            static_cast<std::uint64_t>(files_statted));
}

TEST_F(MdsProtocolTest, PrefixReplicationRegistersAtAuthority) {
  build(StrategyKind::kDirHash);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[5]);
  ASSERT_NE(f, nullptr);
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kStat, f);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  // Serving the stat forced prefix replicas of f's ancestors whose
  // authority is elsewhere; each replica must be registered there.
  MdsNode& server = cluster->mds(auth);
  for (FsNode* a : f->ancestry()) {
    if (a == f) continue;
    const MdsId a_auth = server.authority_for(a);
    if (a_auth == auth) continue;
    ASSERT_NE(server.cache().peek(a->ino()), nullptr) << a->path();
    EXPECT_FALSE(server.cache().peek(a->ino())->authoritative);
    EXPECT_GE(cluster->mds(a_auth).replica_holders(a->ino()), 1u)
        << a->path();
  }
}

TEST_F(MdsProtocolTest, UpdateInvalidatesReplicas) {
  build(StrategyKind::kDirHash);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[5]);
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kStat, f);
  run_for(kSecond);
  // Find a replicated ancestor.
  FsNode* repl = nullptr;
  MdsId repl_auth = kInvalidMds;
  for (FsNode* a : f->ancestry()) {
    if (a == f) continue;
    const MdsId a_auth = cluster->mds(auth).authority_for(a);
    if (a_auth != auth && a->depth() >= 1) {
      repl = a;
      repl_auth = a_auth;
    }
  }
  if (repl == nullptr) GTEST_SKIP() << "no cross-node prefix in this path";
  ASSERT_GE(cluster->mds(repl_auth).replica_holders(repl->ino()), 1u);
  // chmod at the authority invalidates the replicas: childless copies are
  // dropped; copies still anchoring cached children are refreshed in
  // place and re-registered. Either way no stale version may survive.
  client.send(repl_auth, OpType::kChmod, repl);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    if (i == repl_auth) continue;
    const CacheEntry* e = cluster->mds(i).cache().peek(repl->ino());
    if (e != nullptr && !e->authoritative) {
      EXPECT_EQ(e->version, repl->inode().version) << "stale replica on "
                                                   << i;
    }
  }
}

TEST_F(MdsProtocolTest, RenameDirectoryDropsStaleDescendants) {
  build(StrategyKind::kDynamicSubtree);
  // Pick a user home with a subdirectory containing files.
  FsNode* subdir = nullptr;
  tree->visit([&](FsNode* n) {
    if (subdir == nullptr && n->is_dir() && n->depth() >= 3 &&
        n->child_count() > 0) {
      subdir = n;
    }
  });
  ASSERT_NE(subdir, nullptr);
  FsNode* f = find_file_under(subdir);
  if (f == nullptr) GTEST_SKIP() << "no file in subdir";
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kStat, f);
  run_for(kSecond);
  ASSERT_NE(cluster->mds(auth).cache().peek(f->ino()), nullptr);

  // Rename the subdirectory into another user's home.
  FsNode* dst = cluster->namespace_info().user_roots[6];
  const MdsId rename_auth = auth_of(subdir);
  client.send(rename_auth, OpType::kRename, subdir, "moved_away", dst);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  EXPECT_EQ(f->ancestry()[2]->ino(), dst->ancestry()[2]->ino());
  // Cached descendants of the moved dir were dropped cluster-wide
  // (pinned/anchoring entries may linger briefly by design).
  for (int i = 0; i < cluster->num_mds(); ++i) {
    CacheEntry* e = cluster->mds(i).cache().peek(f->ino());
    if (e != nullptr) {
      EXPECT_GT(e->pins + e->cached_children, 0u);
    }
  }
}

TEST_F(MdsProtocolTest, LinkAnchorsInode) {
  build(StrategyKind::kDynamicSubtree);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[0]);
  FsNode* dir = cluster->namespace_info().user_roots[1];
  const MdsId auth = auth_of(dir);
  client.send(auth, OpType::kLink, dir, "hard_link", f);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  EXPECT_TRUE(cluster->anchors().is_anchored(f->ino()));
  EXPECT_EQ(f->inode().nlink, 2u);
  // The anchor chain resolves to the file's real ancestors.
  const auto chain = cluster->anchors().resolve(f->ino());
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.front(), f->parent()->ino());
  EXPECT_EQ(chain.back(), kRootInode);
}

TEST_F(MdsProtocolTest, JournalExpiryTriggersTierTwoWriteback) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.journal_capacity = 64;  // overflow quickly
  cfg.mds.dirfrag_enabled = false;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  tree = &cluster->tree();

  FsNode* dir = cluster->namespace_info().user_roots[7];
  const MdsId auth = auth_of(dir);
  MdsNode& node = cluster->mds(auth);
  const std::uint64_t writes_before = node.disk().writes();
  for (int i = 0; i < 150; ++i) {
    client.send(auth, OpType::kCreate, dir, "spill" + std::to_string(i));
    if (i % 16 == 15) run_for(100 * kMillisecond);
  }
  run_for(5 * kSecond);
  EXPECT_GT(node.disk().writes(), writes_before);
  EXPECT_LE(node.journal().live_entries(), 64u);
}

TEST_F(MdsProtocolTest, LazyHybridSkipsTraversal) {
  build(StrategyKind::kLazyHybrid);
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[0]);
  const MdsId auth = auth_of(f);
  client.send(auth, OpType::kStat, f);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  MdsNode& node = cluster->mds(auth);
  // Only the file itself is cached: no prefix inodes at all.
  EXPECT_NE(node.cache().peek(f->ino()), nullptr);
  for (FsNode* a : f->ancestry()) {
    if (a == f || a->parent() == nullptr) continue;  // root is bootstrap
    EXPECT_EQ(node.cache().peek(a->ino()), nullptr) << a->path();
  }
  EXPECT_EQ(node.stats().lh_traversal_fixups, 0u);
}

TEST_F(MdsProtocolTest, LazyHybridStaleAccessPaysTraversalOnce) {
  // Disable the background drain so staleness persists until accessed.
  SimConfig cfg = manual_config(StrategyKind::kLazyHybrid);
  cfg.mds.lh_drain_rate = 0.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  tree = &cluster->tree();
  FsNode* f = find_file_under(cluster->namespace_info().user_roots[0]);
  FsNode* dir = f->parent();
  // chmod the parent dir: every nested file's stored ACL goes stale.
  client.send(cluster->mds(0).authority_for(dir), OpType::kChmod, dir);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  ASSERT_TRUE(cluster->lazy()->is_stale(f));

  // The chmod may have made the dir private: stat as the owner.
  const std::uint32_t owner = dir->inode().perms.uid;
  const MdsId auth = cluster->mds(0).authority_for(f);
  client.send(auth, OpType::kStat, f, "", nullptr, owner);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  EXPECT_GE(cluster->mds(auth).stats().lh_traversal_fixups, 1u);
  EXPECT_FALSE(cluster->lazy()->is_stale(f));
  // Second access: cheap again.
  const std::uint64_t fixups = cluster->mds(auth).stats().lh_traversal_fixups;
  client.send(auth, OpType::kStat, f, "", nullptr, owner);
  run_for(kSecond);
  EXPECT_EQ(cluster->mds(auth).stats().lh_traversal_fixups, fixups);
}

TEST_F(MdsProtocolTest, LazyHybridBackgroundDrainEmptiesQueue) {
  // Slow drain so the queue is observably nonempty, then fully drains.
  SimConfig cfg = manual_config(StrategyKind::kLazyHybrid);
  cfg.mds.lh_drain_rate = 60.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  tree = &cluster->tree();
  FsNode* home = cluster->namespace_info().user_roots[2];
  client.send(cluster->mds(0).authority_for(home), OpType::kChmod, home);
  run_for(100 * kMillisecond);
  ASSERT_TRUE(client.last().success);
  ASSERT_GT(cluster->lazy()->pending(), 0u);
  run_for(30 * kSecond);  // drain pump runs on node 0
  EXPECT_EQ(cluster->lazy()->pending(), 0u);
  // Every nested item is fresh again without ever being accessed.
  tree->visit([&](FsNode* n) {
    EXPECT_FALSE(cluster->lazy()->is_stale(n)) << n->path();
  });
}

}  // namespace
}  // namespace mdsim
