// Cache-coherence protocol details (paper section 4.2) and the dirfrag
// registry's hashing properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "test_util.h"
#include "workload/general.h"

namespace mdsim {
namespace {

TEST(DirFragRegistry, DentryAuthorityDeterministicAndSpread) {
  DirFragRegistry reg(8);
  std::map<MdsId, int> counts;
  for (int i = 0; i < 4000; ++i) {
    const std::string name = "entry" + std::to_string(i);
    const MdsId a = reg.dentry_authority(42, name);
    EXPECT_EQ(a, reg.dentry_authority(42, name));  // deterministic
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 8);
    ++counts[a];
  }
  // All nodes get a reasonable share of a fragmented directory.
  for (const auto& [mds, n] : counts) {
    EXPECT_GT(n, 250) << "mds " << mds;
  }
  // Different directories map the same name differently (ino-seeded).
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "entry" + std::to_string(i);
    if (reg.dentry_authority(42, name) != reg.dentry_authority(43, name)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 50);
}

TEST(DirFragRegistry, FragmentUnfragmentLifecycle) {
  DirFragRegistry reg(4);
  EXPECT_FALSE(reg.is_fragmented(7));
  reg.fragment(7, /*home=*/0, /*giga=*/false, /*by_size=*/false,
               /*child_count=*/0, /*seed_temp=*/0.0, /*now=*/0,
               /*half_life=*/kSecond);
  EXPECT_TRUE(reg.is_fragmented(7));
  EXPECT_EQ(reg.fragmented_count(), 1u);
  reg.unfragment(7);
  EXPECT_FALSE(reg.is_fragmented(7));
  EXPECT_EQ(reg.fragmented_count(), 0u);
  reg.unfragment(7);  // idempotent
}

class CoherenceTest : public ::testing::Test {
 protected:
  void build(StrategyKind k = StrategyKind::kDirHash) {
    cluster = std::make_unique<ClusterSim>(manual_config(k));
    client.attach(*cluster);
  }
  void run_for(SimTime dt) { cluster->run_until(cluster->sim().now() + dt); }

  /// Serve a stat for `f` at its authority so prefix replicas appear at
  /// the serving node; returns the (replica dir, its authority) pair of
  /// the deepest cross-node prefix, or {nullptr, -1}.
  std::pair<FsNode*, MdsId> make_prefix_replica(FsNode* f) {
    const MdsId auth = cluster->mds(0).authority_for(f);
    client.send(auth, OpType::kStat, f);
    run_for(kSecond);
    FsNode* repl = nullptr;
    MdsId repl_auth = kInvalidMds;
    for (FsNode* a : f->ancestry()) {
      if (a == f) continue;
      const MdsId a_auth = cluster->mds(0).authority_for(a);
      if (a_auth != auth && a->depth() >= 1) {
        repl = a;
        repl_auth = a_auth;
      }
    }
    return {repl, repl_auth};
  }

  std::unique_ptr<ClusterSim> cluster;
  TestClient client;
};

TEST_F(CoherenceTest, AnchoredReplicaIsRefreshedNotDropped) {
  build();
  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  auto [repl, repl_auth] = make_prefix_replica(f);
  if (repl == nullptr) GTEST_SKIP() << "no cross-node prefix";
  const MdsId holder = cluster->mds(0).authority_for(f);
  CacheEntry* e = cluster->mds(holder).cache().peek(repl->ino());
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->authoritative);
  ASSERT_GT(e->cached_children, 0u);  // it anchors the cached file

  // Update the dir at its authority; the anchored replica must be
  // refreshed to the new version (it cannot be dropped while anchoring).
  client.send(repl_auth, OpType::kSetattr, repl);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  e = cluster->mds(holder).cache().peek(repl->ino());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, repl->inode().version);
  // ...and it is still registered for future invalidations.
  EXPECT_GE(cluster->mds(repl_auth).replica_holders(repl->ino()), 1u);
}

TEST_F(CoherenceTest, EvictionSendsReplicaDropAndDeregisters) {
  // Tiny caches force replica eviction; the authority must forget the
  // holder (section 4.2: "it will notify the authority").
  SimConfig cfg = manual_config(StrategyKind::kDirHash);
  cfg.mds.cache_capacity = 64;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);

  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  auto [repl, repl_auth] = make_prefix_replica(f);
  if (repl == nullptr) GTEST_SKIP() << "no cross-node prefix";
  const std::size_t holders_before =
      cluster->mds(repl_auth).replica_holders(repl->ino());
  ASSERT_GE(holders_before, 1u);

  // Flood the holder with stats of unrelated files to churn its cache.
  const MdsId holder = cluster->mds(0).authority_for(f);
  int sent = 0;
  for (FsNode* other : cluster->tree().files()) {
    if (cluster->mds(0).authority_for(other) != holder) continue;
    if (FsTree::is_ancestor_of(repl, other)) continue;
    client.send(holder, OpType::kStat, other);
    if (++sent >= 300) break;
  }
  run_for(5 * kSecond);
  if (cluster->mds(holder).cache().peek(repl->ino()) != nullptr) {
    GTEST_SKIP() << "replica survived the churn (still anchored)";
  }
  EXPECT_EQ(cluster->mds(repl_auth).replica_holders(repl->ino()), 0u);
}

TEST_F(CoherenceTest, UnsolicitedGrantMarksReplicatedAtReceiver) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 15.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  const MdsId auth = cluster->mds(0).authority_for(f);
  for (int i = 0; i < 40; ++i) {
    client.send(auth, OpType::kStat, f);
    run_for(2 * kMillisecond);
  }
  run_for(100 * kMillisecond);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_TRUE(cluster->mds(i).is_replicated_everywhere(f->ino())) << i;
    // And every receiver anchored the pushed item under a valid chain.
    EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
  }
}

TEST_F(CoherenceTest, UnlinkInvalidationRemovesChildlessReplicas) {
  build(StrategyKind::kDynamicSubtree);
  // Create a file, replicate it via traffic control, then unlink it: every
  // childless replica must vanish.
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 15.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  FsNode* dir = cluster->namespace_info().user_roots[0];
  const MdsId dauth = cluster->mds(0).authority_for(dir);
  client.send(dauth, OpType::kCreate, dir, "hot_then_gone");
  run_for(kSecond);
  FsNode* f = dir->child("hot_then_gone");
  ASSERT_NE(f, nullptr);
  const InodeId ino = f->ino();
  const MdsId fauth = cluster->mds(0).authority_for(f);
  for (int i = 0; i < 40; ++i) {
    client.send(fauth, OpType::kStat, f, "", nullptr,
                dir->inode().perms.uid);
    run_for(2 * kMillisecond);
  }
  run_for(100 * kMillisecond);
  int holders = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    if (cluster->mds(i).cache().peek(ino) != nullptr) ++holders;
  }
  ASSERT_GT(holders, 1);

  client.send(fauth, OpType::kUnlink, f, "", nullptr,
              dir->inode().perms.uid);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_EQ(cluster->mds(i).cache().peek(ino), nullptr) << i;
  }
}

// --- directory-move invalidation ------------------------------------------

/// The whole-cache scan a directory-move invalidation is specified by:
/// every cached strict descendant of `moved` (is_ancestor_of), in
/// for_each order, put deepest-first by the same unstable sort.
std::vector<CacheEntry*> scan_move_victims(MetadataCache& cache,
                                           const FsNode* moved) {
  std::vector<CacheEntry*> v;
  cache.for_each([&](CacheEntry& e) {
    if (e.node != moved && FsTree::is_ancestor_of(moved, e.node)) {
      v.push_back(&e);
    }
  });
  std::sort(v.begin(), v.end(), [](const CacheEntry* a, const CacheEntry* b) {
    return a->node->depth() > b->node->depth();
  });
  return v;
}

/// Send `rounds` rounds of a restructure-heavy op stream (one op per
/// virtual client per round, 5 ms apart) at each target's authority, as
/// the target's owner so most ops pass the permission checks.
void drive_restructure(ClusterSim& c, TestClient& tc, GeneralWorkload& w,
                       Rng& rng, int rounds) {
  Operation op;
  for (int r = 0; r < rounds; ++r) {
    for (ClientId id = 0; id < 16; ++id) {
      if (w.next(id, c.sim().now(), rng, &op) == kNever) continue;
      if (op.target == nullptr || !c.tree().alive(op.target)) continue;
      tc.send(c.mds(0).authority_for(op.target), op.op, op.target, op.name,
              op.secondary, op.target->inode().perms.uid);
    }
    c.run_until(c.sim().now() + 5 * kMillisecond);
  }
}

/// For every MDS: the subtree walk's victims equal the scan's for the
/// root, every `stride`-th live directory and every cached directory
/// (tombstoned ones included). Returns the number of comparisons that had
/// victims to order.
std::size_t expect_walk_matches_scan(ClusterSim& c, std::size_t stride) {
  std::size_t checked = 0;
  for (int i = 0; i < c.num_mds(); ++i) {
    MdsNode& n = c.mds(i);
    std::vector<const FsNode*> sample;
    for (std::size_t d = 0; d < c.tree().dirs().size(); d += stride) {
      sample.push_back(c.tree().dirs()[d]);
    }
    n.cache().for_each([&](CacheEntry& e) {
      if (e.node->is_dir()) sample.push_back(e.node);
    });
    for (const FsNode* dir : sample) {
      const auto walked = n.move_victims_probe(dir);
      const auto scanned = scan_move_victims(n.cache(), dir);
      EXPECT_TRUE(walked == scanned)
          << "mds " << i << " dir " << dir->path() << ": walk found "
          << walked.size() << ", scan " << scanned.size();
      if (!scanned.empty()) ++checked;
    }
  }
  return checked;
}

class MoveSweepEquivalence : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MoveSweepEquivalence, SubtreeWalkEqualsCacheScan) {
  SimConfig cfg = manual_config(GetParam(), /*num_mds=*/4, /*seed=*/11);
  cfg.mds.cache_capacity = 600;
  ClusterSim cluster(cfg);
  TestClient tc;
  tc.attach(cluster);
  GeneralWorkload w(cluster.tree(), cluster.namespace_info().user_roots,
                    OpMix::restructure_heavy());
  Rng rng(5);

  std::size_t checked = 0;
  for (int phase = 0; phase < 3; ++phase) {
    drive_restructure(cluster, tc, w, rng, 150);
    checked += expect_walk_matches_scan(cluster, 7);
  }

  // Pin a cached file at one node, unlink it, and keep restructuring: the
  // pin holds the tombstone in that cache through later move sweeps.
  CacheEntry* pinned = nullptr;
  int holder = -1;
  for (int i = 0; i < cluster.num_mds() && pinned == nullptr; ++i) {
    cluster.mds(i).cache().for_each([&](CacheEntry& e) {
      if (pinned == nullptr && !e.node->is_dir() &&
          cluster.tree().alive(e.node) && e.node->inode().nlink == 1) {
        pinned = &e;
      }
    });
    if (pinned != nullptr) holder = i;
  }
  ASSERT_NE(pinned, nullptr);
  FsNode* victim = pinned->node;
  FsNode* dir = victim->parent();
  cluster.mds(holder).cache().pin(pinned);
  const std::uint64_t req =
      tc.send(cluster.mds(0).authority_for(victim), OpType::kUnlink, victim,
              "", nullptr, dir->inode().perms.uid);
  cluster.run_until(cluster.sim().now() + kSecond);
  ASSERT_NE(tc.reply_for(req), nullptr);
  ASSERT_TRUE(tc.reply_for(req)->success);
  ASSERT_FALSE(cluster.tree().alive(victim));
  drive_restructure(cluster, tc, w, rng, 150);
  checked += expect_walk_matches_scan(cluster, 7);
  ASSERT_EQ(cluster.mds(holder).cache().peek(victim->ino()), pinned);
  const auto under_dir = cluster.mds(holder).move_victims_probe(dir);
  EXPECT_NE(std::find(under_dir.begin(), under_dir.end(), pinned),
            under_dir.end());
  cluster.mds(holder).cache().unpin(pinned);

  // The stream really restructured: sweeps ran, and plenty was compared.
  std::uint64_t sweeps = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    sweeps += cluster.mds(i).stats().move_sweeps;
  }
  EXPECT_GT(sweeps, 0u);
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, MoveSweepEquivalence,
                         ::testing::Values(StrategyKind::kDynamicSubtree,
                                           StrategyKind::kDirHash));

TEST_F(CoherenceTest, MoveSweepVisitsOnlyTheMovedSubtree) {
  build(StrategyKind::kDynamicSubtree);
  // Warm every cache well past the size of the subtree we will move.
  int sent = 0;
  for (FsNode* f : cluster->tree().files()) {
    client.send(cluster->mds(0).authority_for(f), OpType::kStat, f, "",
                nullptr, f->inode().perms.uid);
    if (++sent >= 600) break;
  }
  run_for(2 * kSecond);

  // A small directory two or more levels below a home, holding files.
  FsNode* home = nullptr;
  FsNode* dir = nullptr;
  for (FsNode* h : cluster->namespace_info().user_roots) {
    for (FsNode* d : cluster->tree().dirs()) {
      if (d->depth() >= h->depth() + 2 && FsTree::is_ancestor_of(h, d) &&
          d->subtree_size() >= 3 && d->subtree_size() <= 40) {
        dir = d;
        break;
      }
    }
    if (dir != nullptr) {
      home = h;
      break;
    }
  }
  ASSERT_NE(dir, nullptr);
  FsNode* file = nullptr;
  for (FsNode* c : dir->children_list()) {
    if (!c->is_dir() && c->inode().nlink == 1) file = c;
  }
  ASSERT_NE(file, nullptr);
  const std::uint32_t uid = dir->inode().perms.uid;
  const MdsId auth = cluster->mds(0).authority_for(dir);

  // One tombstone below the directory, then the move.
  client.send(cluster->mds(0).authority_for(file), OpType::kUnlink, file, "",
              nullptr, uid);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  // Each node's sweep examines the entries it caches strictly below the
  // directory plus its strays — the directory itself becomes one wherever
  // it is cached — never its whole cache.
  std::vector<MdsStats> before;
  std::vector<std::uint64_t> expect;
  std::uint64_t most_below = 0;
  std::size_t largest_cache = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    MetadataCache& cache = cluster->mds(i).cache();
    before.push_back(cluster->mds(i).stats());
    std::uint64_t below = 0;
    cache.for_each([&](CacheEntry& e) {
      below += e.node != dir && FsTree::is_ancestor_of(dir, e.node);
    });
    const std::uint64_t strays =
        cache.stray_count() + (cache.peek(dir->ino()) != nullptr ? 1 : 0);
    expect.push_back(below + strays);
    most_below = std::max(most_below, below);
    largest_cache = std::max(largest_cache, cache.size());
  }
  client.send(auth, OpType::kRename, dir, "moved_here", home, uid);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  ASSERT_EQ(dir->parent(), home);

  EXPECT_GT(most_below, 0u);
  EXPECT_GT(largest_cache, 2 * (most_below + 1));
  for (int i = 0; i < cluster->num_mds(); ++i) {
    const MdsStats& s = cluster->mds(i).stats();
    EXPECT_EQ(s.move_sweeps - before[i].move_sweeps, 1u) << i;
    EXPECT_EQ(s.move_sweep_nodes - before[i].move_sweep_nodes, expect[i])
        << i;
  }
}

}  // namespace
}  // namespace mdsim
