#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cache/metadata_cache.h"
#include "common/rng.h"
#include "fstree/tree.h"

namespace mdsim {
namespace {

using Reach = MetadataCache::Reach;

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() {
    dir_a = tree.mkdir(tree.root(), "a");
    dir_b = tree.mkdir(tree.root(), "b");
    for (int i = 0; i < 20; ++i) {
      files.push_back(tree.create_file(dir_a, "f" + std::to_string(i)));
    }
  }

  /// Insert a node and its ancestors (as prefixes).
  CacheEntry* insert_chain(MetadataCache& c, FsNode* node,
                           InsertKind kind = InsertKind::kDemand,
                           SimTime now = 0) {
    for (FsNode* n : node->ancestry()) {
      if (n == node) return c.insert(n, kind, true, now);
      if (c.peek(n->ino()) == nullptr) {
        c.insert(n, InsertKind::kPrefix, true, now);
      }
    }
    return nullptr;
  }

  FsTree tree;
  FsNode* dir_a;
  FsNode* dir_b;
  std::vector<FsNode*> files;
};

TEST_F(CacheTest, HitAndMissAccounting) {
  MetadataCache c(100);
  insert_chain(c, files[0]);
  EXPECT_NE(c.lookup(files[0]->ino(), 0), nullptr);
  EXPECT_EQ(c.lookup(files[1]->ino(), 0), nullptr);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
  // Peek and uncounted lookups do not skew the stats.
  c.peek(files[0]->ino());
  c.lookup(files[0]->ino(), 0, /*count_stats=*/false);
  EXPECT_EQ(c.stats().hits, 1u);
}

// The index is presized for the entries plus aux-only records at under
// 2/3 load, and grows past it. Aux-only records are not bounded by the
// capacity, so enough of them force the index to grow twice; every key
// must stay reachable across the rehashes.
TEST_F(CacheTest, IndexGrowsPastPresizeAndKeepsEveryKey) {
  MetadataCache c(16);  // index presized to 64 slots
  for (std::size_t i = 0; i < 14; ++i) insert_chain(c, files[i]);
  ASSERT_EQ(c.size(), 16u);
  std::vector<InodeId> aux_only;
  for (InodeId ino = 1000; ino < 1100; ++ino) {
    c.aux_ensure(ino).replicated_everywhere = true;
    aux_only.push_back(ino);
  }
  c.aux_ensure(files[0]->ino()).replicated_everywhere = true;  // on an entry

  EXPECT_NE(c.peek(tree.root()->ino()), nullptr);
  EXPECT_NE(c.peek(dir_a->ino()), nullptr);
  for (std::size_t i = 0; i < 14; ++i) {
    EXPECT_NE(c.peek(files[i]->ino()), nullptr) << i;
  }
  for (InodeId ino : aux_only) {
    const EntryAux* a = c.aux_peek(ino);
    ASSERT_NE(a, nullptr) << ino;
    EXPECT_TRUE(a->replicated_everywhere) << ino;
    EXPECT_EQ(c.peek(ino), nullptr) << ino;
  }
  ASSERT_NE(c.aux_peek(files[0]->ino()), nullptr);
  EXPECT_TRUE(c.aux_peek(files[0]->ino())->replicated_everywhere);
  EXPECT_EQ(c.check_invariants(), "");

  // Deleting from the grown index keeps the rest reachable.
  for (std::size_t i = 7; i < 14; ++i) c.erase(files[i]->ino());
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NE(c.peek(files[i]->ino()), nullptr) << i;
  }
  for (InodeId ino : aux_only) EXPECT_NE(c.aux_peek(ino), nullptr) << ino;
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, LruEvictsColdestLeaf) {
  MetadataCache c(6);
  for (int i = 0; i < 4; ++i) insert_chain(c, files[i]);
  // Cache: root, a, f0..f3 = 6 entries. Touch f0 so f1 is the coldest.
  c.lookup(files[0]->ino(), 1);
  insert_chain(c, files[4]);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.peek(files[1]->ino()), nullptr);   // evicted
  EXPECT_NE(c.peek(files[0]->ino()), nullptr);   // protected by touch
  EXPECT_NE(c.peek(dir_a->ino()), nullptr);      // prefix pinned by children
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, TreeInvariantProtectsAncestors) {
  MetadataCache c(4);
  insert_chain(c, files[0]);  // root, a, f0
  insert_chain(c, files[1]);  // + f1 -> at capacity
  insert_chain(c, files[2]);  // forces eviction: must take f0 or f1
  EXPECT_NE(c.peek(tree.root()->ino()), nullptr);
  EXPECT_NE(c.peek(dir_a->ino()), nullptr);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, OnlyLeavesExpire) {
  MetadataCache c(1000);
  for (FsNode* f : files) insert_chain(c, f);
  // dir_a anchors 20 children: erase must refuse.
  EXPECT_FALSE(c.erase(dir_a->ino()));
  EXPECT_TRUE(c.erase(files[0]->ino()));
  EXPECT_EQ(c.peek(files[0]->ino()), nullptr);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, PinnedEntriesNeverEvicted) {
  MetadataCache c(4);
  CacheEntry* e = insert_chain(c, files[0]);
  c.pin(e);
  for (int i = 1; i < 10; ++i) insert_chain(c, files[i]);
  EXPECT_NE(c.peek(files[0]->ino()), nullptr);
  EXPECT_FALSE(c.erase(files[0]->ino()));
  c.unpin(e);
  EXPECT_TRUE(c.erase(files[0]->ino()));
}

TEST_F(CacheTest, PrefetchedEvictedBeforeDemand) {
  MetadataCache c(7);
  insert_chain(c, files[0]);  // root, a, f0 (demand)
  c.insert(files[1], InsertKind::kPrefetch, true, 0);
  c.insert(files[2], InsertKind::kPrefetch, true, 0);
  c.insert(files[3], InsertKind::kDemand, true, 0);
  // 7 entries; add two more to force evictions.
  c.insert(files[4], InsertKind::kDemand, true, 1);
  c.insert(files[5], InsertKind::kDemand, true, 1);
  // Probation (prefetched, untouched) must go first.
  EXPECT_EQ(c.peek(files[1]->ino()), nullptr);
  EXPECT_NE(c.peek(files[0]->ino()), nullptr);
  EXPECT_NE(c.peek(files[3]->ino()), nullptr);
}

TEST_F(CacheTest, PrefetchHitPromotesToMain) {
  MetadataCache c(7);
  insert_chain(c, files[0]);
  c.insert(files[1], InsertKind::kPrefetch, true, 0);
  c.insert(files[2], InsertKind::kPrefetch, true, 0);
  // Touch the first prefetched entry: it graduates out of probation.
  EXPECT_NE(c.lookup(files[1]->ino(), 1), nullptr);
  c.insert(files[3], InsertKind::kDemand, true, 2);
  c.insert(files[4], InsertKind::kDemand, true, 2);
  c.insert(files[5], InsertKind::kDemand, true, 2);
  // files[2] (still probation) evicted before promoted files[1].
  EXPECT_EQ(c.peek(files[2]->ino()), nullptr);
  EXPECT_NE(c.peek(files[1]->ino()), nullptr);
}

TEST_F(CacheTest, EvictionCallbackFires) {
  MetadataCache c(3);
  std::vector<InodeId> evicted;
  c.set_evict_callback(
      [&](const CacheEntry& e) { evicted.push_back(e.node->ino()); });
  insert_chain(c, files[0]);
  insert_chain(c, files[1]);  // evicts f0 (root+a pinned by tree invariant)
  EXPECT_EQ(evicted, std::vector<InodeId>{files[0]->ino()});
  // erase() is not an eviction: no callback.
  c.erase(files[1]->ino());
  EXPECT_EQ(evicted.size(), 1u);
}

TEST_F(CacheTest, ReplicaAccounting) {
  MetadataCache c(100);
  c.insert(tree.root(), InsertKind::kDemand, false, 0);
  c.insert(dir_a, InsertKind::kPrefix, false, 0);
  EXPECT_EQ(c.replica_count(), 2u);
  // Upgrading to authoritative reduces the replica count.
  c.insert(dir_a, InsertKind::kPrefix, true, 1);
  EXPECT_EQ(c.replica_count(), 1u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, PrefixAccountingFollowsDemandAccess) {
  MetadataCache c(100);
  c.insert(tree.root(), InsertKind::kPrefix, true, 0);
  c.insert(dir_a, InsertKind::kPrefix, true, 0);
  EXPECT_EQ(c.prefix_count(), 2u);
  // A demand access on the directory clears its prefix status.
  CacheEntry* e = c.peek(dir_a->ino());
  c.mark_demand_access(e);
  EXPECT_EQ(c.prefix_count(), 1u);
  // Files never count as prefix inodes.
  c.insert(files[0], InsertKind::kPrefetch, true, 0);
  EXPECT_EQ(c.prefix_count(), 1u);
}

TEST_F(CacheTest, PrefixFractionCountsAnchoringDirs) {
  MetadataCache c(100);
  insert_chain(c, files[0]);
  // root + a are anchoring prefixes; f0 is a demand file.
  EXPECT_NEAR(c.prefix_fraction(), 2.0 / 3.0, 1e-9);
}

TEST_F(CacheTest, AnchorParentSurvivesRename) {
  MetadataCache c(100);
  insert_chain(c, files[0]);
  insert_chain(c, dir_b, InsertKind::kDemand);
  // Move the cached file to another directory in the ground truth.
  ASSERT_TRUE(tree.rename(files[0], dir_b, "moved"));
  // The cache still accounts against the old parent; removing the entry
  // must not corrupt the counts.
  EXPECT_TRUE(c.erase(files[0]->ino()));
  EXPECT_EQ(c.check_invariants(), "");
  EXPECT_TRUE(c.erase(dir_a->ino()));  // no children left
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, StrayFollowsRenamesAwayAndBack) {
  MetadataCache c(100);
  insert_chain(c, files[0]);
  insert_chain(c, files[1]);
  insert_chain(c, dir_b, InsertKind::kDemand);
  std::vector<CacheEntry*> kids;
  ASSERT_TRUE(tree.rename(files[0], dir_b, "moved"));
  c.note_moved(files[0]->ino());
  EXPECT_EQ(c.stray_count(), 1u);
  EXPECT_EQ(c.check_invariants(), "");
  // Still counted (and listed) under its anchor, found under its live
  // parent through the stray list, and under its anchor no more.
  EXPECT_EQ(c.peek(dir_a->ino())->cached_children, 2u);
  // Just the stray under dir_b; 2 anchored + the stray visited under a.
  EXPECT_EQ(c.collect_below(dir_b, Reach::kChildren, kids), 1u);
  EXPECT_EQ(kids, std::vector<CacheEntry*>{c.peek(files[0]->ino())});
  kids.clear();
  EXPECT_EQ(c.collect_below(dir_a, Reach::kChildren, kids), 3u);
  EXPECT_EQ(kids, std::vector<CacheEntry*>{c.peek(files[1]->ino())});
  // A same-directory rename changes no parent: nothing to track.
  ASSERT_TRUE(tree.rename(files[1], dir_a, "renamed"));
  c.note_moved(files[1]->ino());
  EXPECT_EQ(c.stray_count(), 1u);
  // Back under its anchor, the entry leaves the stray list.
  ASSERT_TRUE(tree.rename(files[0], dir_a, "home_again"));
  c.note_moved(files[0]->ino());
  EXPECT_EQ(c.stray_count(), 0u);
  EXPECT_EQ(c.check_invariants(), "");
  // Evicting a stray takes it off the list.
  ASSERT_TRUE(tree.rename(files[0], dir_b, "moved"));
  c.note_moved(files[0]->ino());
  EXPECT_EQ(c.stray_count(), 1u);
  EXPECT_TRUE(c.erase(files[0]->ino()));
  EXPECT_EQ(c.stray_count(), 0u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, EntrySizeStaysBounded) {
  // The per-parent child list costs three slot links on top of the
  // 96-byte entry; the budget for them is 16 bytes.
  EXPECT_LE(sizeof(CacheEntry), 112u);
}

TEST_F(CacheTest, CapacityShrinkEvicts) {
  MetadataCache c(50);
  for (int i = 0; i < 10; ++i) insert_chain(c, files[i]);
  EXPECT_EQ(c.size(), 12u);
  c.set_capacity(5);
  EXPECT_LE(c.size(), 5u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, OverflowWhenEverythingPinned) {
  MetadataCache c(2);
  CacheEntry* r = c.insert(tree.root(), InsertKind::kDemand, true, 0);
  c.pin(r);
  CacheEntry* a = c.insert(dir_a, InsertKind::kDemand, true, 0);
  c.pin(a);
  // Third insert cannot evict anything (root/a pinned, f anchored by its
  // own insertion pin) -> cache temporarily overflows instead of dying.
  CacheEntry* f = c.insert(files[0], InsertKind::kDemand, true, 0);
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, LazyHybridModeSkipsTreeInvariant) {
  MetadataCache c(10, /*enforce_tree=*/false);
  // Free-standing insert without ancestors.
  CacheEntry* e = c.insert(files[5], InsertKind::kDemand, true, 0);
  EXPECT_NE(e, nullptr);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.erase(files[5]->ino()));
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, PromotionMovesProbationToMain) {
  MetadataCache c(10);
  insert_chain(c, files[0]);
  CacheEntry* e = c.insert(files[1], InsertKind::kPrefetch, true, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->in_probation);
  CacheEntry* hit = c.lookup(files[1]->ino(), 1);
  EXPECT_EQ(hit, e);  // slab addresses are stable
  EXPECT_FALSE(e->in_probation);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, EvictCallbackMayInsert) {
  MetadataCache c(3);
  insert_chain(c, files[0]);  // root, a, f0
  bool reentered = false;
  c.set_evict_callback([&](const CacheEntry& e) {
    // The victim is already unlinked: peek must miss, and inserting other
    // entries mid-eviction must be safe.
    EXPECT_EQ(c.peek(e.node->ino()), nullptr);
    if (!reentered && e.node == files[0]) {
      reentered = true;
      c.insert(files[2], InsertKind::kDemand, true, 5);
    }
  });
  insert_chain(c, files[1]);  // overflows: evicts f0, callback adds f2
  EXPECT_TRUE(reentered);
  EXPECT_EQ(c.peek(files[0]->ino()), nullptr);
  EXPECT_NE(c.peek(files[1]->ino()), nullptr);
  EXPECT_LE(c.size(), 3u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, EvictCallbackMayErase) {
  MetadataCache c(4);
  insert_chain(c, files[0]);
  insert_chain(c, files[1]);  // root, a, f0, f1
  c.set_evict_callback([&](const CacheEntry& e) {
    if (e.node == files[0]) c.erase(files[1]->ino());
  });
  insert_chain(c, files[2]);  // overflows: evicts f0, callback drops f1
  EXPECT_EQ(c.peek(files[0]->ino()), nullptr);
  EXPECT_EQ(c.peek(files[1]->ino()), nullptr);
  EXPECT_NE(c.peek(files[2]->ino()), nullptr);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, EraseWhilePinnedRefused) {
  MetadataCache c(10);
  CacheEntry* e = insert_chain(c, files[0]);
  c.pin(e);
  EXPECT_FALSE(c.erase(files[0]->ino()));
  EXPECT_NE(c.peek(files[0]->ino()), nullptr);
  EXPECT_EQ(c.check_invariants(), "");
  c.unpin(e);
  EXPECT_TRUE(c.erase(files[0]->ino()));
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, UnpinUnderflowSurfaces) {
  MetadataCache c(10);
  CacheEntry* e = insert_chain(c, files[0]);
  EXPECT_EQ(c.stats().pin_underflows, 0u);
  // Debug builds trip the assert; release builds count the underflow and
  // leave the pin count uncorrupted instead of wrapping to 2^32-1.
  EXPECT_DEBUG_DEATH(c.unpin(e), "matching pin");
#ifdef NDEBUG
  EXPECT_EQ(c.stats().pin_underflows, 1u);
  EXPECT_EQ(e->pins, 0u);
  EXPECT_TRUE(c.erase(files[0]->ino()));
#endif
}

TEST_F(CacheTest, AuxOutlivesEntry) {
  MetadataCache c(10);
  insert_chain(c, files[0]);
  const InodeId ino = files[0]->ino();
  EntryAux& a = c.aux_ensure(ino);
  a.replica_holders.push_back(2);
  EXPECT_EQ(c.peek(ino)->aux, &a);  // entry linked to its sidecar
  // The replica registry survives the entry being dropped (an authority
  // keeps invalidating holders after shedding its own copy).
  EXPECT_TRUE(c.erase(ino));
  ASSERT_NE(c.aux_peek(ino), nullptr);
  EXPECT_EQ(c.aux_peek(ino)->replica_holders.size(), 1u);
  EXPECT_EQ(c.aux_count(), 1u);
  // Draining the last field reclaims the record.
  c.aux_peek(ino)->replica_holders.clear();
  c.aux_gc(ino);
  EXPECT_EQ(c.aux_peek(ino), nullptr);
  EXPECT_EQ(c.aux_count(), 0u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, ReplicatedFlagDiesWithEntry) {
  MetadataCache c(3);
  insert_chain(c, files[0]);
  c.aux_ensure(files[0]->ino()).replicated_everywhere = true;
  insert_chain(c, files[1]);  // evicts f0
  EXPECT_EQ(c.peek(files[0]->ino()), nullptr);
  // replicated-everywhere is a property of the resident copy: cleared on
  // eviction, and the then-empty sidecar is reclaimed.
  EXPECT_EQ(c.aux_peek(files[0]->ino()), nullptr);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, FetchCoalescing) {
  MetadataCache c(10);
  const InodeId ino = files[0]->ino();
  int calls = 0;
  auto w = [&](CacheEntry*) { ++calls; };
  EXPECT_TRUE(c.add_fetch_waiter(ino, FetchChannel::kDisk, w));
  EXPECT_FALSE(c.add_fetch_waiter(ino, FetchChannel::kDisk, w));
  EXPECT_TRUE(c.fetch_inflight(ino, FetchChannel::kDisk));
  EXPECT_EQ(c.inflight_fetches(FetchChannel::kDisk), 1u);
  // Channels are independent: a replica request can be in flight for the
  // same inode as a disk read.
  EXPECT_TRUE(c.add_fetch_waiter(ino, FetchChannel::kReplica, w));
  auto waiters = c.take_fetch_waiters(ino, FetchChannel::kDisk);
  EXPECT_EQ(waiters.size(), 2u);
  for (auto& fn : waiters) fn(nullptr);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(c.inflight_fetches(FetchChannel::kDisk), 0u);
  EXPECT_TRUE(c.take_fetch_waiters(ino, FetchChannel::kDisk).empty());
  c.clear_fetch_waiters();
  EXPECT_EQ(c.inflight_fetches(FetchChannel::kReplica), 0u);
  EXPECT_EQ(c.aux_count(), 0u);
  EXPECT_EQ(c.check_invariants(), "");
}

TEST_F(CacheTest, PopularityDecays) {
  MetadataCache c(10);
  CacheEntry* e = insert_chain(c, files[0]);
  for (int i = 0; i < 16; ++i) c.lookup(files[0]->ino(), 0);
  const double hot = e->popularity.get(0);
  const double later = e->popularity.get(60 * kSecond);
  EXPECT_GT(hot, 10.0);
  EXPECT_LT(later, 0.01);
}

// The collection below `dir` equals a whole-cache scan: the entries whose
// live parent is `dir` (kChildren), or that is_ancestor_of puts strictly
// below it (kSubtree), in scan order. It examines the lists of `dir`'s
// entry and of every entry it reaches, plus the strays — never the cache.
std::string collection_matches_scan(MetadataCache& c, const FsNode* dir,
                                    Reach reach) {
  std::vector<CacheEntry*> got;
  const std::size_t visits = c.collect_below(dir, reach, got);
  std::vector<CacheEntry*> want;
  c.for_each([&](CacheEntry& e) {
    const bool below =
        reach == Reach::kChildren
            ? e.node->parent() == dir
            : e.node != dir && FsTree::is_ancestor_of(dir, e.node);
    if (below) want.push_back(&e);
  });
  const std::string what =
      (reach == Reach::kChildren ? "children of " : "subtree of ") +
      dir->path();
  if (got != want) {
    return what + ": " + std::to_string(got.size()) + " collected vs " +
           std::to_string(want.size()) + " scanned";
  }
  std::size_t expect_visits = c.stray_count();
  if (const CacheEntry* d = c.peek(dir->ino())) {
    expect_visits += d->cached_children;
  }
  if (reach == Reach::kSubtree) {
    for (const CacheEntry* e : got) expect_visits += e->cached_children;
  }
  if (visits != expect_visits) {
    return what + ": visits " + std::to_string(visits) + " vs " +
           std::to_string(expect_visits);
  }
  return {};
}

std::string collections_match_scan(MetadataCache& c,
                                   const std::vector<FsNode*>& dirs) {
  for (const FsNode* d : dirs) {
    for (Reach reach : {Reach::kChildren, Reach::kSubtree}) {
      std::string err = collection_matches_scan(c, d, reach);
      if (!err.empty()) return err;
    }
  }
  return {};
}

TEST_F(CacheTest, CollectBelowLeavesOneScanOrderedListAcrossRoots) {
  MetadataCache c(100);
  for (int i = 0; i < 6; ++i) insert_chain(c, files[i]);
  insert_chain(c, dir_b);
  std::vector<CacheEntry*> got;
  // A pre-seeded entry and an overlapping second root: one copy each,
  // everything in scan order.
  got.push_back(c.peek(files[3]->ino()));
  c.collect_below(dir_a, Reach::kSubtree, got);
  c.collect_below(tree.root(), Reach::kSubtree, got);
  std::vector<CacheEntry*> want;
  c.for_each([&](CacheEntry& e) {
    if (e.node != tree.root()) want.push_back(&e);
  });
  EXPECT_EQ(got, want);
  // The filter sees every reached entry; only the kept ones are appended.
  auto picked = [&](const CacheEntry& e) {
    return e.node == files[2] || e.node == files[4];
  };
  got.clear();
  c.collect_below(dir_a, Reach::kChildren, got, picked);
  want.clear();
  c.for_each([&](CacheEntry& e) {
    if (picked(e)) want.push_back(&e);
  });
  EXPECT_EQ(want.size(), 2u);
  EXPECT_EQ(got, want);
}

// Tombstones stay below the directory they were removed from and follow
// it through later renames; remote links name inodes but are not nodes.
TEST_F(CacheTest, SubtreeCollectionFollowsTombstonesThroughRenames) {
  std::vector<FsNode*> all{tree.root()};
  auto mk = [&](FsNode* dir, const std::string& name) {
    all.push_back(tree.mkdir(dir, name));
    return all.back();
  };
  auto file = [&](FsNode* dir, const std::string& name) {
    all.push_back(tree.create_file(dir, name));
    return all.back();
  };
  FsNode* a = mk(tree.root(), "ta");
  FsNode* b = mk(a, "b");
  FsNode* c = mk(b, "c");
  FsNode* empty = mk(b, "empty");
  FsNode* d = mk(tree.root(), "td");
  FsNode* fa = file(a, "fa");
  FsNode* fb1 = file(b, "fb1");
  FsNode* fb2 = file(b, "fb2");
  FsNode* fc = file(c, "fc");
  FsNode* fe = file(empty, "fe");
  file(d, "fd");
  MetadataCache cache(100);
  for (FsNode* n : all) insert_chain(cache, n);

  // Removed before the ancestor rename: a file, and an empty subdirectory
  // whose own file went first (a tombstone below a tombstone). The cache
  // keeps every copy, as a peer does until the invalidation lands.
  ASSERT_TRUE(tree.remove(fb1));
  ASSERT_TRUE(tree.remove(fe));
  ASSERT_TRUE(tree.remove(empty));
  // Move b (and every tombstone below it) from a to d.
  ASSERT_TRUE(tree.rename(b, d, "b2"));
  cache.note_moved(b->ino());
  // Removed after the rename.
  ASSERT_TRUE(tree.remove(fc));
  // Remote links in both directions across the moved subtree.
  ASSERT_TRUE(tree.link(fa, c, "ln_in"));
  ASSERT_TRUE(tree.link(fb2, a, "ln_out"));
  ASSERT_EQ(cache.size(), all.size());
  ASSERT_EQ(cache.check_invariants(), "");

  for (FsNode* root : all) {
    ASSERT_EQ(collections_match_scan(cache, {root}), "") << root->name();
  }
  auto below = [&](FsNode* root) {
    std::vector<CacheEntry*> got;
    cache.collect_below(root, Reach::kSubtree, got);
    std::set<const FsNode*> nodes;
    for (const CacheEntry* e : got) nodes.insert(e->node);
    return nodes;
  };
  const auto under_d = below(d);
  const auto under_a = below(a);
  for (const FsNode* t : {fb1, fe, empty, fc}) {
    EXPECT_FALSE(tree.alive(t));
    EXPECT_EQ(under_d.count(t), 1u) << t->name();
    EXPECT_EQ(under_a.count(t), 0u) << t->name();
  }
  // c's link to fa does not pull fa in, and a's link to fb2 does not
  // pull fb2 in.
  EXPECT_EQ(below(c), (std::set<const FsNode*>{fc}));
  EXPECT_EQ(below(a), (std::set<const FsNode*>{fa}));
}

// Property test: random insert/lookup/erase/evict/rename/remove sequences
// never violate the cache's structural invariants, and collect_below
// always returns what a whole-cache scan finds, for the children and the
// subtree of every directory, tombstoned ones included.
class CacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheProperty, RandomOpsPreserveInvariants) {
  FsTree tree;
  Rng rng(GetParam());
  // Build a small random hierarchy; creates continue during the run.
  std::vector<FsNode*> dirs{tree.root()};
  std::vector<FsNode*> nodes;
  auto create = [&](int i) {
    FsNode* parent = dirs[rng.uniform(dirs.size())];
    if (!tree.alive(parent)) return;
    if (rng.bernoulli(0.3)) {
      FsNode* d = tree.mkdir(parent, "d" + std::to_string(i));
      if (d != nullptr) {
        dirs.push_back(d);
        nodes.push_back(d);
      }
    } else {
      FsNode* f = tree.create_file(parent, "f" + std::to_string(i));
      if (f != nullptr) nodes.push_back(f);
    }
  };
  for (int i = 0; i < 60; ++i) create(i);
  MetadataCache c(24);
  SimTime now = 0;
  int renamed = 0;
  int removed = 0;
  std::size_t max_strays = 0;
  std::size_t tombstones_below_moved = 0;
  for (int step = 0; step < 3000; ++step) {
    now += kMillisecond;
    FsNode* n = nodes[rng.uniform(nodes.size())];
    const bool alive = tree.alive(n);
    const double action = rng.uniform_double();
    if (action < 0.5) {
      // Insert with full ancestry (live nodes only: requests reach
      // tombstones through copies they already hold).
      for (FsNode* a : alive ? n->ancestry() : std::vector<FsNode*>{}) {
        if (a == n) {
          const InsertKind kind =
              rng.bernoulli(0.3) ? InsertKind::kPrefetch : InsertKind::kDemand;
          c.insert(a, kind, rng.bernoulli(0.8), now);
        } else if (c.peek(a->ino()) == nullptr) {
          c.insert(a, InsertKind::kPrefix, rng.bernoulli(0.8), now);
        }
      }
    } else if (action < 0.7) {
      c.lookup(n->ino(), now);
    } else if (action < 0.78) {
      c.erase(n->ino());
    } else if (action < 0.84) {
      // Rename in the ground truth (refused into its own subtree or onto
      // a taken name), then tell the cache as the MDS handler does. Half
      // the renames move a directory, carrying whatever lies below it.
      FsNode* from = rng.bernoulli(0.5) ? dirs[rng.uniform(dirs.size())] : n;
      FsNode* to = dirs[rng.uniform(dirs.size())];
      if (tree.alive(from) && tree.alive(to) &&
          tree.rename(from, to, "r" + std::to_string(step))) {
        c.note_moved(from->ino());
        ++renamed;
      }
    } else if (action < 0.87) {
      // Unlink (a file or an empty directory) and leave any cached copy
      // in place as a tombstone, as a peer holds it until invalidated;
      // later renames of its former ancestors carry it along.
      if (alive && tree.remove(n)) ++removed;
    } else if (action < 0.88) {
      create(1000 + step);
    } else if (action < 0.9) {
      // Squeeze, then restore: a burst of tree-ordered evictions.
      c.set_capacity(8);
      c.set_capacity(24);
    } else {
      // Churn the protocol sidecar alongside the entries.
      EntryAux& a = c.aux_ensure(n->ino());
      if (rng.bernoulli(0.5)) {
        a.replica_holders.push_back(1);
      } else {
        a.replica_holders.clear();
        a.replicated_everywhere = rng.bernoulli(0.3);
      }
      c.aux_gc(n->ino());
    }
    if (step % 250 == 0) {
      ASSERT_EQ(c.check_invariants(), "") << "step " << step;
      ASSERT_LE(c.size(), 24u + 1u);
      ASSERT_EQ(collections_match_scan(c, dirs), "") << "step " << step;
    }
    max_strays = std::max(max_strays, c.stray_count());
    // Cached tombstones below a directory renamed while cached.
    c.for_each([&](CacheEntry& e) {
      if (tree.alive(e.node)) return;
      for (const FsNode* p = e.node->parent(); p != nullptr; p = p->parent()) {
        const CacheEntry* pe = c.peek(p->ino());
        if (pe != nullptr && pe->stray) {
          ++tombstones_below_moved;
          return;
        }
      }
    });
  }
  EXPECT_EQ(c.check_invariants(), "");
  EXPECT_EQ(collections_match_scan(c, dirs), "");
  EXPECT_GT(renamed, 0);
  EXPECT_GT(removed, 0);
  EXPECT_GT(max_strays, 0u);  // renames did leave entries off their anchor
  EXPECT_GT(tombstones_below_moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace mdsim
