// Namespace-partition *strategies* (static/dynamic subtree, dir/file
// hash): how the metadata tree is divided among MDS nodes. Not to be
// confused with test_net_partition.cc, which covers *network* partitions
// (split fabric, fencing, quorum takeover).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fstree/generator.h"
#include "strategy/partition.h"

namespace mdsim {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() {
    NamespaceParams params;
    params.num_users = 16;
    params.nodes_per_user = 100;
    info = generate_namespace(tree, params);
  }
  FsTree tree;
  NamespaceInfo info;
};

TEST_F(PartitionTest, TraitsTable) {
  const StrategyTraits dyn = traits_for(StrategyKind::kDynamicSubtree);
  EXPECT_TRUE(dyn.whole_directory_io);
  EXPECT_TRUE(dyn.path_traversal);
  EXPECT_FALSE(dyn.client_computes_location);
  EXPECT_TRUE(dyn.load_balancing);
  EXPECT_TRUE(dyn.traffic_control);
  EXPECT_TRUE(dyn.dynamic_dirfrag);

  const StrategyTraits sta = traits_for(StrategyKind::kStaticSubtree);
  EXPECT_TRUE(sta.whole_directory_io);
  EXPECT_FALSE(sta.load_balancing);
  EXPECT_FALSE(sta.traffic_control);

  const StrategyTraits dh = traits_for(StrategyKind::kDirHash);
  EXPECT_TRUE(dh.whole_directory_io);
  EXPECT_TRUE(dh.path_traversal);
  EXPECT_TRUE(dh.client_computes_location);

  const StrategyTraits fh = traits_for(StrategyKind::kFileHash);
  EXPECT_FALSE(fh.whole_directory_io);
  EXPECT_TRUE(fh.path_traversal);

  const StrategyTraits lh = traits_for(StrategyKind::kLazyHybrid);
  EXPECT_FALSE(lh.whole_directory_io);
  EXPECT_FALSE(lh.path_traversal);
  EXPECT_TRUE(lh.client_computes_location);
}

TEST_F(PartitionTest, SubtreeDelegationNesting) {
  SubtreePartition p(StrategyKind::kDynamicSubtree, 4);
  FsNode* home = info.home;
  FsNode* u0 = info.user_roots[0];
  FsNode* u1 = info.user_roots[1];

  // Nothing delegated: everything belongs to MDS 0.
  EXPECT_EQ(p.authority_of(u0), 0);

  p.delegate(home, 1);
  EXPECT_EQ(p.authority_of(u0), 1);
  EXPECT_EQ(p.authority_of(tree.root()), 0);

  // Nested delegation overrides the enclosing one (paper: /usr to one
  // MDS, /usr/local reassigned to another).
  p.delegate(u0, 2);
  EXPECT_EQ(p.authority_of(u0), 2);
  EXPECT_EQ(p.authority_of(u1), 1);
  for (FsNode* child : u0->children_list()) {
    EXPECT_EQ(p.authority_of(child), 2);
  }
}

TEST_F(PartitionTest, DelegateReturnsPreviousHolder) {
  SubtreePartition p(StrategyKind::kDynamicSubtree, 4);
  EXPECT_EQ(p.delegate(info.home, 1), 0);
  EXPECT_EQ(p.delegate(info.user_roots[0], 3), 1);
}

TEST_F(PartitionTest, DelegationsOfListsOwned) {
  SubtreePartition p(StrategyKind::kDynamicSubtree, 4);
  p.delegate(info.user_roots[0], 2);
  p.delegate(info.user_roots[1], 2);
  p.delegate(info.user_roots[2], 3);
  const auto owned = p.delegations_of(2);
  EXPECT_EQ(owned.size(), 2u);
  EXPECT_EQ(p.delegation_count(), 3u);
  EXPECT_TRUE(p.is_delegation_point(info.user_roots[0]));
  EXPECT_FALSE(p.is_delegation_point(info.user_roots[3]));
}

TEST_F(PartitionTest, InitialPartitionCoversAllServers) {
  SubtreePartition p(StrategyKind::kStaticSubtree, 4);
  p.initialize_by_hashing_top_dirs(tree);
  // 16 user dirs hashed over 4 nodes: every node should own some homes.
  std::map<MdsId, int> counts;
  for (FsNode* u : info.user_roots) ++counts[p.authority_of(u)];
  EXPECT_GE(counts.size(), 3u);  // at least most nodes get territory
  // Authority is constant within a home subtree.
  FsNode* u0 = info.user_roots[0];
  const MdsId auth = p.authority_of(u0);
  u0->ancestry();  // no-op sanity
  tree.visit([&](FsNode* n) {
    if (FsTree::is_ancestor_of(u0, n)) {
      EXPECT_EQ(p.authority_of(n), auth) << n->path();
    }
  });
}

TEST_F(PartitionTest, DirHashGroupsSiblings) {
  HashPartition p(StrategyKind::kDirHash, 8);
  FsNode* u0 = info.user_roots[0];
  // All children of a directory share an authority (dentries grouped).
  std::set<MdsId> auths;
  for (FsNode* child : u0->children_list()) {
    auths.insert(p.authority_of(child));
  }
  EXPECT_EQ(auths.size(), 1u);
  // But different directories scatter across the cluster.
  std::set<MdsId> dir_auths;
  for (FsNode* u : info.user_roots) {
    if (!u->children_list().empty()) {
      dir_auths.insert(p.authority_of(u->children_list().front()));
    }
  }
  EXPECT_GT(dir_auths.size(), 3u);
}

TEST_F(PartitionTest, FileHashScattersSiblings) {
  HashPartition p(StrategyKind::kFileHash, 8);
  std::set<MdsId> auths;
  FsNode* big = nullptr;
  for (FsNode* u : info.user_roots) {
    if (big == nullptr || u->child_count() > big->child_count()) big = u;
  }
  ASSERT_GE(big->child_count(), 4u);
  for (FsNode* child : big->children_list()) {
    auths.insert(p.authority_of(child));
  }
  EXPECT_GT(auths.size(), 1u);
}

TEST_F(PartitionTest, HashSpreadIsBalanced) {
  HashPartition p(StrategyKind::kFileHash, 8);
  std::map<MdsId, int> counts;
  for (FsNode* f : tree.files()) ++counts[p.authority_of(f)];
  const double expected =
      static_cast<double>(tree.files().size()) / 8.0;
  for (const auto& [mds, count] : counts) {
    EXPECT_GT(mds, -1);
    EXPECT_LT(mds, 8);
    EXPECT_NEAR(count, expected, expected * 0.35);
  }
}

TEST_F(PartitionTest, FileHashFollowsRename) {
  HashPartition p(StrategyKind::kFileHash, 8);
  FsNode* f = tree.files()[0];
  FsNode* dst = info.user_roots[5];
  const MdsId before = p.authority_of(f);
  ASSERT_TRUE(tree.rename(f, dst, "relocated_xyz"));
  // Location is a function of the path; at least the mapping stays
  // deterministic and in range.
  const MdsId after = p.authority_of(f);
  EXPECT_GE(after, 0);
  EXPECT_LT(after, 8);
  EXPECT_EQ(p.authority_of(f), after);
  (void)before;
}

TEST_F(PartitionTest, FactoryMatchesKind) {
  for (StrategyKind k :
       {StrategyKind::kDynamicSubtree, StrategyKind::kStaticSubtree,
        StrategyKind::kDirHash, StrategyKind::kFileHash,
        StrategyKind::kLazyHybrid}) {
    auto p = make_partitioner(k, 4, tree);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), k);
    // Every node resolves to a valid authority.
    const MdsId a = p->authority_of(tree.files()[0]);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

}  // namespace
}  // namespace mdsim
