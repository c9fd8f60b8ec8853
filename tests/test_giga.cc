// GIGA+ incremental directory splitting: bitmap math, registry split/
// merge mechanics, stale-client redirects, dead-node dentry routing, and
// the notify/heartbeat-generation resync protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/fault_plan.h"
#include "test_util.h"

namespace mdsim {
namespace {

// ---------------------------------------------------------------------------
// Pure bitmap math.

TEST(GigaBitmap, PartitionWalksDownToExisting) {
  // Only partition 0: everything maps there.
  for (std::uint64_t h = 0; h < 64; ++h) {
    EXPECT_EQ(giga_partition(h, 1), 0u);
  }
  // {0,1}: the low hash bit decides.
  EXPECT_EQ(giga_partition(0b1000, 0b11), 0u);
  EXPECT_EQ(giga_partition(0b1001, 0b11), 1u);
  // {0,1,3}: suffix 3 (mod 4) owns its own partition; suffix 2 falls
  // back to 0; suffix 1 stays at 1.
  EXPECT_EQ(giga_partition(7, 0b1011), 3u);
  EXPECT_EQ(giga_partition(2, 0b1011), 0u);
  EXPECT_EQ(giga_partition(5, 0b1011), 1u);
}

TEST(GigaBitmap, DepthTracksSplits) {
  EXPECT_EQ(giga_depth_of(0b1, 0), 0);
  EXPECT_EQ(giga_depth_of(0b11, 0), 1);
  EXPECT_EQ(giga_depth_of(0b11, 1), 1);
  // {0,1,2}: partition 0 split twice, 1 and 2 once each (birth depth).
  EXPECT_EQ(giga_depth_of(0b111, 0), 2);
  EXPECT_EQ(giga_depth_of(0b111, 1), 1);
  EXPECT_EQ(giga_depth_of(0b111, 2), 2);
}

TEST(GigaBitmap, LargerMaxDepthConverges) {
  // As long as every existing partition index fits in d bits, walking
  // from the deeper kGigaMaxDepth-bit suffix lands on the same partition
  // as the d-bit suffix: hash bits above the deepest split never matter.
  for (std::uint64_t h = 0; h < 4096; ++h) {
    EXPECT_EQ(giga_partition(h, 0b1011), giga_partition(h & 0b11, 0b1011));
    EXPECT_EQ(giga_partition(h, 0b111), giga_partition(h & 0b11, 0b111));
  }
}

TEST(GigaBitmap, NodePlacementRoundRobinFromHome) {
  EXPECT_EQ(giga_node(2, 0, 3), 2);
  EXPECT_EQ(giga_node(2, 1, 3), 0);
  EXPECT_EQ(giga_node(2, 2, 3), 1);
  EXPECT_EQ(giga_node(0, 5, 3), 2);
}

// ---------------------------------------------------------------------------
// Registry transitions.

TEST(GigaRegistry, SplitMovesOnlyOnePartitionsShare) {
  DirFragRegistry reg(4);
  reg.fragment(42, /*home=*/1, /*giga=*/true, /*by_size=*/false,
               /*child_count=*/100, /*seed_temp=*/5.0, /*now=*/0,
               /*half_life=*/kSecond);
  ASSERT_TRUE(reg.is_fragmented(42));
  const auto* g = reg.find(42);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->bitmap, 1u);
  // Giga fragmentation itself re-routes nothing.
  EXPECT_EQ(reg.max_event_moved, 0u);

  reg.split(42, 0, /*parent_count=*/60, /*child_count=*/40, 0);
  EXPECT_EQ(reg.find(42)->bitmap, 0b11u);
  EXPECT_EQ(reg.split_events, 1u);
  // The split moved the 40 entries whose suffix bit flipped — never the
  // whole directory.
  EXPECT_EQ(reg.max_event_moved, 40u);

  // Partition 1 folds back into 0; its 40 entries come home.
  reg.merge_pair(42, 0, 1, 0);
  EXPECT_EQ(reg.find(42)->bitmap, 1u);
  EXPECT_EQ(reg.pair_merge_events, 1u);
  EXPECT_EQ(reg.total_event_moved, 80u);

  // With everything merged back to the home partition, dropping the
  // entry moves nothing more.
  reg.unfragment(42);
  EXPECT_FALSE(reg.is_fragmented(42));
  EXPECT_EQ(reg.merge_events, 1u);
  EXPECT_EQ(reg.total_event_moved, 80u);
}

TEST(GigaRegistry, GenerationAdvancesAndChangesSinceCoversDepartures) {
  DirFragRegistry reg(4);
  EXPECT_EQ(reg.generation(), 0u);
  reg.fragment(7, 0, /*giga=*/true, false, 0, 0.0, 0, kSecond);
  const std::uint64_t g1 = reg.generation();
  EXPECT_GT(g1, 0u);
  EXPECT_TRUE(reg.changed_ever(7));
  reg.unfragment(7);
  EXPECT_GT(reg.generation(), g1);
  // The change log survives the entry itself: a peer that lags must
  // still re-scan a directory that has since been unhashed.
  EXPECT_TRUE(reg.changed_ever(7));
  const auto since = reg.changes_since(g1);
  ASSERT_EQ(since.size(), 1u);
  EXPECT_EQ(since[0], 7u);
  EXPECT_TRUE(reg.changes_since(reg.generation()).empty());
}

TEST(GigaRegistry, DentryAuthorityRoutesAroundDeadNodes) {
  DirFragRegistry reg(4);
  // Legacy hashing over all nodes must skip a node known dead instead of
  // routing dentries into a black hole.
  reg.set_node_alive(2, false);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(reg.dentry_authority(42, "e" + std::to_string(i)), 2);
  }
  // Giga partition placement probes past the dead node too.
  reg.fragment(42, /*home=*/2, /*giga=*/true, false, 10, 0.0, 0, kSecond);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(reg.dentry_authority(42, "e" + std::to_string(i)), 2);
  }
  // Back alive: the original hash placement returns and spreads.
  reg.set_node_alive(2, true);
  reg.unfragment(42);
  std::set<MdsId> seen;
  for (int i = 0; i < 400; ++i) {
    seen.insert(reg.dentry_authority(42, "e" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// ---------------------------------------------------------------------------
// Cluster behavior.

class GigaTest : public ::testing::Test {
 protected:
  void run_for(ClusterSim& c, SimTime dt) { c.run_until(c.sim().now() + dt); }

  /// Drive `n` creates into `dir`, routing each by the converged dentry
  /// authority (as a bitmap-fresh client would), 1 ms apart.
  int storm(ClusterSim& cluster, TestClient& client, FsNode* dir,
            const std::string& prefix, int n) {
    int sent = 0;
    for (int i = 0; i < n; ++i) {
      const std::string name = prefix + std::to_string(i);
      MdsId to = cluster.mds(0).authority_for(dir);
      if (cluster.dirfrag().is_fragmented(dir->ino())) {
        to = cluster.dirfrag().dentry_authority(dir->ino(), name);
      }
      client.send(to, OpType::kCreate, dir, name);
      ++sent;
      run_for(cluster, kMillisecond);
    }
    return sent;
  }
};

TEST_F(GigaTest, IncrementalSplitStormNeverMovesWholeDirectory) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];

  const int sent = storm(cluster, client, dir, "giga", 200);
  run_for(cluster, 100 * kMillisecond);

  ASSERT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));
  const auto* g = cluster.dirfrag().find(dir->ino());
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->giga);
  // The storm drove real incremental splits…
  EXPECT_GE(cluster.dirfrag().split_events, 1u);
  EXPECT_NE(g->bitmap, 1u);
  // …and no single event re-routed more than one partition's dentries,
  // let alone the whole directory (the all-at-once failure mode).
  EXPECT_GT(cluster.dirfrag().max_event_moved, 0u);
  EXPECT_LT(cluster.dirfrag().max_event_moved, dir->child_count());

  // Dentry authorities scatter across several nodes.
  std::set<MdsId> auths;
  for (FsNode* c : dir->children_list()) {
    auths.insert(cluster.mds(0).authority_for(c));
  }
  EXPECT_GT(auths.size(), 1u);

  // Every create succeeded despite the bitmap changing mid-storm.
  int ok = 0;
  for (const auto& r : client.replies) ok += r.success ? 1 : 0;
  EXPECT_EQ(ok, sent);

  // Storm over: pair merges reverse the splits one at a time, then the
  // directory unhashes entirely.
  run_for(cluster, 60 * kSecond);
  EXPECT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_GE(cluster.dirfrag().pair_merge_events, 1u);
  EXPECT_GE(cluster.dirfrag().merge_events, 1u);
}

TEST_F(GigaTest, MisroutedDentryOpDrawsRedirectAndStillSucceeds) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];

  storm(cluster, client, dir, "pre", 120);
  run_for(cluster, 100 * kMillisecond);
  const auto* g = cluster.dirfrag().find(dir->ino());
  ASSERT_NE(g, nullptr);
  ASSERT_NE(g->bitmap, 1u);

  // Find a name whose partition does NOT live at the home node, then
  // send the create to home anyway — a stale-bitmap client's mistake.
  const MdsId home = g->home;
  std::string misrouted;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "stale" + std::to_string(i);
    if (cluster.dirfrag().dentry_authority(dir->ino(), name) != home) {
      misrouted = name;
      break;
    }
  }
  ASSERT_FALSE(misrouted.empty());

  const std::uint64_t before = cluster.mds(home).stats().giga_redirects_sent;
  const std::uint64_t req =
      client.send(home, OpType::kCreate, dir, misrouted);
  run_for(cluster, 200 * kMillisecond);
  // The mis-routed op was corrected (redirect sent) AND forwarded to
  // completion — stale clients lose no operations.
  EXPECT_GT(cluster.mds(home).stats().giga_redirects_sent, before);
  const ClientReplyMsg* reply = client.reply_for(req);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->success);
  EXPECT_GT(reply->hops, 0u);
}

TEST_F(GigaTest, CrashedNodeWhileFragmentedIsRoutedAround) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];

  storm(cluster, client, dir, "chaos", 120);
  run_for(cluster, 100 * kMillisecond);
  ASSERT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));

  // Crash a partition-owning node that is not the directory's subtree
  // authority; survivors detect it from missed heartbeats.
  const MdsId auth = cluster.mds(0).authority_for(dir);
  const MdsId victim = static_cast<MdsId>((auth + 1) % cluster.num_mds());
  cluster.fail_mds(victim, /*warm_takeover=*/true);
  run_for(cluster, 6 * kSecond);

  EXPECT_FALSE(cluster.dirfrag().node_alive(victim));
  if (cluster.dirfrag().is_fragmented(dir->ino())) {
    // Dentry routing never points at the dead node…
    for (int i = 0; i < 100; ++i) {
      EXPECT_NE(
          cluster.dirfrag().dentry_authority(dir->ino(),
                                             "after" + std::to_string(i)),
          victim);
    }
    // …and creates routed by it keep succeeding through the outage.
    const std::size_t replies_before = client.replies.size();
    int sent = 0;
    for (int i = 0; i < 20; ++i) {
      const std::string name = "after" + std::to_string(i);
      client.send(cluster.dirfrag().dentry_authority(dir->ino(), name),
                  OpType::kCreate, dir, name);
      ++sent;
      run_for(cluster, kMillisecond);
    }
    run_for(cluster, kSecond);
    int ok = 0;
    for (std::size_t i = replies_before; i < client.replies.size(); ++i) {
      ok += client.replies[i].success ? 1 : 0;
    }
    EXPECT_EQ(ok, sent);
  }

  // Recovery: heartbeats resume and the liveness mask heals.
  cluster.recover_mds(victim);
  run_for(cluster, 6 * kSecond);
  EXPECT_TRUE(cluster.dirfrag().node_alive(victim));
}

TEST_F(GigaTest, DroppedNotifiesHealViaHeartbeatGeneration) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];
  cluster.run_until(0);  // build, so authority_for below is valid
  const MdsId auth = cluster.mds(0).authority_for(dir);
  const MdsId peer = static_cast<MdsId>((auth + 1) % cluster.num_mds());

  // Isolate `peer` from both other nodes for 2 s (below the 3-miss
  // failure-detection threshold): every DirFragNotify broadcast during
  // the window is lost on the floor.
  LinkFault drop_all;
  drop_all.drop = 1.0;
  FaultPlan plan;
  for (int other = 0; other < cluster.num_mds(); ++other) {
    if (other == peer) continue;
    plan.flaky_link(kMillisecond, 2 * kSecond, peer, other, drop_all);
  }
  plan.arm(cluster);
  run_for(cluster, 2 * kMillisecond);

  storm(cluster, client, dir, "lost", 60);
  ASSERT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));
  ASSERT_GT(cluster.dirfrag().generation(), 0u);
  // Inside the window the isolated peer has seen nothing.
  EXPECT_EQ(cluster.mds(peer).dirfrag_seen_gen(), 0u);

  // Link healed: the next heartbeat carries the registry generation and
  // the lagging peer re-syncs in one sweep.
  run_for(cluster, 4 * kSecond);
  EXPECT_GE(cluster.mds(peer).stats().dirfrag_resyncs, 1u);
  EXPECT_EQ(cluster.mds(peer).dirfrag_seen_gen(),
            cluster.dirfrag().generation());
}

TEST_F(GigaTest, NotifyForUnknownInodeIsIgnored) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);

  auto msg = std::make_unique<DirFragNotifyMsg>();
  msg->dir = 999999999;  // no such inode anywhere
  msg->fragmented = true;
  msg->bitmap = 0b11;
  msg->gen = 12;
  cluster.network().send(client.addr(), 1, std::move(msg));
  run_for(cluster, 100 * kMillisecond);
  // Nothing to assert beyond "did not crash / did not invent state".
  EXPECT_EQ(cluster.dirfrag().fragmented_count(), 0u);
}

TEST_F(GigaTest, OscillatingTemperatureDoesNotFlap) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.dirfrag_temp_threshold = 10.0;
  cfg.mds.popularity_half_life = 2 * kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];

  // Four bursts with 1.5 s of quiet between them: the hysteresis floor
  // (threshold × 0.25) holds the fragmentation through the gaps instead
  // of unhashing and re-hashing per burst.
  for (int burst = 0; burst < 4; ++burst) {
    storm(cluster, client, dir, "b" + std::to_string(burst) + "_", 15);
    run_for(cluster, 1500 * kMillisecond);
  }
  EXPECT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_EQ(cluster.dirfrag().fragment_events, 1u);
  EXPECT_EQ(cluster.dirfrag().merge_events, 0u);

  // A real lull does consolidate — exactly once.
  run_for(cluster, 60 * kSecond);
  EXPECT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_EQ(cluster.dirfrag().fragment_events, 1u);
  EXPECT_EQ(cluster.dirfrag().merge_events, 1u);
}

TEST_F(GigaTest, CooledBigDirectoryEventuallyMerges) {
  // Regression for the legacy merge condition: a directory fragmented by
  // *size* kept its children forever, so a size term in the cooled test
  // made the fragmentation permanent. Cooling is about temperature only.
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.giga_enabled = false;  // the all-at-once path
  cfg.mds.dirfrag_size_threshold = 20;
  cfg.mds.dirfrag_temp_threshold = 40.0;
  cfg.mds.popularity_half_life = kSecond;
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[1];

  storm(cluster, client, dir, "big", 25);
  run_for(cluster, 100 * kMillisecond);
  ASSERT_TRUE(cluster.dirfrag().is_fragmented(dir->ino()));
  const auto* g = cluster.dirfrag().find(dir->ino());
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->giga);
  EXPECT_TRUE(g->by_size);
  EXPECT_GE(dir->child_count(), cfg.mds.dirfrag_size_threshold);

  // The directory is still over the size threshold — children do not
  // evaporate — but once the traffic is gone it must unhash anyway.
  run_for(cluster, 60 * kSecond);
  EXPECT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));
  EXPECT_GE(cluster.dirfrag().merge_events, 1u);
  EXPECT_GE(dir->child_count(), cfg.mds.dirfrag_size_threshold);
}

TEST_F(GigaTest, DropForeignDentriesKeepsPinnedAndAnchoringEntries) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);

  // Find a directory with a grandchild-bearing subdirectory plus two
  // plain children that will hash AWAY from the authority once the
  // directory legacy-fragments.
  FsNode* dir = nullptr;
  FsNode* subdir = nullptr;      // anchors a cached grandchild -> kept
  FsNode* pinned_child = nullptr;    // pinned -> kept
  FsNode* plain_child = nullptr;     // unpinned, childless -> dropped
  MdsId auth = kInvalidMds;
  for (FsNode* d : cluster.namespace_info().user_roots) {
    auth = cluster.mds(0).authority_for(d);
    subdir = pinned_child = plain_child = nullptr;
    for (FsNode* c : d->children_list()) {
      const std::string& name = c->name();
      const MdsId frag_auth = static_cast<MdsId>(
          giga_name_hash(d->ino(), name) %
          static_cast<std::uint64_t>(cluster.num_mds()));
      if (frag_auth == auth) continue;  // stays local: uninteresting
      if (c->is_dir() && c->child_count() > 0 && subdir == nullptr) {
        subdir = c;
      } else if (pinned_child == nullptr) {
        pinned_child = c;
      } else if (plain_child == nullptr) {
        plain_child = c;
      }
    }
    if (subdir != nullptr && pinned_child != nullptr &&
        plain_child != nullptr) {
      dir = d;
      break;
    }
  }
  ASSERT_NE(dir, nullptr);

  // Warm the authority's cache via real requests, so the entries carry
  // proper prefix anchoring.
  FsNode* grandchild = subdir->children_list().front();
  client.send(auth, OpType::kStat, grandchild, "", nullptr,
              grandchild->inode().perms.uid);
  client.send(auth, OpType::kStat, pinned_child, "", nullptr,
              pinned_child->inode().perms.uid);
  client.send(auth, OpType::kStat, plain_child, "", nullptr,
              plain_child->inode().perms.uid);
  run_for(cluster, kSecond);
  MetadataCache& cache = cluster.mds(auth).cache();
  ASSERT_NE(cache.peek(subdir->ino()), nullptr);
  ASSERT_NE(cache.peek(pinned_child->ino()), nullptr);
  ASSERT_NE(cache.peek(plain_child->ino()), nullptr);
  cache.pin(cache.peek(pinned_child->ino()));

  // Legacy-fragment the directory out from under the cached entries and
  // sweep: only the droppable foreigner goes.
  cluster.dirfrag().fragment(dir->ino(), auth, /*giga=*/false,
                             /*by_size=*/false, dir->child_count(), 0.0,
                             cluster.sim().now(), kSecond);
  cluster.mds(auth).drop_foreign_dentries_probe(dir);

  EXPECT_EQ(cache.peek(plain_child->ino()), nullptr);
  EXPECT_NE(cache.peek(pinned_child->ino()), nullptr);
  EXPECT_NE(cache.peek(subdir->ino()), nullptr);

  cache.unpin(cache.peek(pinned_child->ino()));
}

// The whole-cache scan drop_foreign_dentries replaced: every resident
// entry whose live parent is `dir`, foreign under the current placement,
// authoritative, anchoring nothing and unpinned.
std::vector<InodeId> scan_foreign_victims(ClusterSim& cluster, MdsId self,
                                          const FsNode* dir) {
  MdsNode& node = cluster.mds(self);
  std::vector<InodeId> victims;
  node.cache().for_each([&](CacheEntry& e) {
    if (e.node->parent() == dir && node.authority_for(e.node) != self &&
        e.authoritative && e.cached_children == 0 && e.pins == 0) {
      victims.push_back(e.node->ino());
    }
  });
  return victims;
}

std::set<InodeId> resident_inos(MetadataCache& cache) {
  std::set<InodeId> out;
  cache.for_each([&](CacheEntry& e) { out.insert(e.node->ino()); });
  return out;
}

TEST_F(GigaTest, DropForeignDentriesMatchesWholeCacheScan) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);

  // The placement the directory gets below: giga-fragmented at home, with
  // partition 0 split once, so partition 1's dentries move to the next
  // node. Planned on a separate registry to pick names and children.
  DirFragRegistry plan(cluster.num_mds());
  FsNode* dir = nullptr;
  MdsId home = kInvalidMds;
  auto foreign = [&](const FsNode* parent, const std::string& name) {
    const auto* g = plan.find(dir->ino());
    return plan.dentry_authority(g, giga_name_hash(parent->ino(), name)) !=
           home;
  };
  // Children that placement alone would drop, each kept or dropped for
  // one other reason.
  FsNode* subdir = nullptr;   // anchors a cached grandchild: kept
  FsNode* pinned = nullptr;   // pinned: kept
  FsNode* replica = nullptr;  // a replica, not authoritative: kept
  FsNode* out = nullptr;      // renamed out of the directory: not a child
  for (FsNode* d : cluster.namespace_info().user_roots) {
    dir = d;
    home = cluster.mds(0).authority_for(d);
    plan.fragment(d->ino(), home, /*giga=*/true, false, 0, 0.0, 0, kSecond);
    plan.split(d->ino(), 0, 0, 0, 0);
    subdir = pinned = replica = out = nullptr;
    for (FsNode* c : d->children_list()) {
      if (!foreign(d, c->name())) continue;
      if (c->is_dir()) {
        if (subdir == nullptr && c->child_count() > 0) subdir = c;
      } else if (pinned == nullptr) {
        pinned = c;
      } else if (replica == nullptr) {
        replica = c;
      } else if (out == nullptr) {
        out = c;
      }
    }
    if (subdir != nullptr && out != nullptr) break;
  }
  ASSERT_NE(subdir, nullptr);
  ASSERT_NE(out, nullptr);
  FsNode* elsewhere = cluster.namespace_info().user_roots[0] == dir
                          ? cluster.namespace_info().user_roots[1]
                          : cluster.namespace_info().user_roots[0];

  // A small create storm: the home node caches every new child.
  storm(cluster, client, dir, "s", 40);
  run_for(cluster, 100 * kMillisecond);
  ASSERT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));

  // A file of another directory that the home node is authority for: it
  // is renamed into `dir` under a foreign name while cached (the stray).
  FsNode* moved_in = nullptr;
  for (FsNode* f : cluster.tree().files()) {
    if (!FsTree::is_ancestor_of(dir, f) &&
        cluster.mds(0).authority_for(f) == home) {
      moved_in = f;
      break;
    }
  }
  ASSERT_NE(moved_in, nullptr);

  FsNode* grandchild = subdir->children_list().front();
  for (FsNode* n : {grandchild, pinned, replica, out, moved_in}) {
    client.send(home, OpType::kStat, n, "", nullptr, n->inode().perms.uid);
  }
  run_for(cluster, kSecond);
  MetadataCache& cache = cluster.mds(home).cache();
  for (FsNode* n : {subdir, grandchild, pinned, out, moved_in}) {
    ASSERT_NE(cache.peek(n->ino()), nullptr) << n->path();
    ASSERT_TRUE(cache.peek(n->ino())->authoritative) << n->path();
  }
  cache.pin(cache.peek(pinned->ino()));
  cache.erase(replica->ino());
  cache.insert(replica, InsertKind::kDemand, /*authoritative=*/false,
               cluster.sim().now());

  std::string out_name;
  std::string in_name;
  for (int i = 0; out_name.empty() || in_name.empty(); ++i) {
    const std::string name = "mv" + std::to_string(i);
    if (out_name.empty() && foreign(elsewhere, name)) {
      out_name = name;
    } else if (in_name.empty() && foreign(dir, name)) {
      in_name = name;
    }
  }
  client.send(home, OpType::kRename, out, out_name, elsewhere,
              out->inode().perms.uid);
  client.send(home, OpType::kRename, moved_in, in_name, dir,
              moved_in->inode().perms.uid);
  run_for(cluster, kSecond);
  ASSERT_EQ(out->parent(), elsewhere);
  ASSERT_EQ(moved_in->parent(), dir);
  ASSERT_NE(cache.peek(out->ino()), nullptr);
  ASSERT_NE(cache.peek(moved_in->ino()), nullptr);
  ASSERT_GE(cache.stray_count(), 2u);

  // Fragment and split exactly as planned, then sweep every node.
  const SimTime now = cluster.sim().now();
  cluster.dirfrag().fragment(dir->ino(), home, /*giga=*/true, false,
                             dir->child_count(), 0.0, now, kSecond);
  cluster.dirfrag().split(dir->ino(), 0, 0, 0, now);
  for (MdsId i = 0; i < cluster.num_mds(); ++i) {
    MdsNode& node = cluster.mds(i);
    MetadataCache& c = node.cache();
    const std::vector<InodeId> victims = scan_foreign_victims(cluster, i, dir);
    std::set<InodeId> expect = resident_inos(c);
    for (InodeId v : victims) expect.erase(v);
    const CacheEntry* d = c.peek(dir->ino());
    const std::uint64_t visits =
        (d != nullptr ? d->cached_children : 0) + c.stray_count();
    const std::uint64_t before = node.stats().foreign_drop_visits;
    const std::size_t size_before = c.size();

    node.drop_foreign_dentries_probe(dir);
    EXPECT_EQ(resident_inos(c), expect) << "mds " << i;
    EXPECT_EQ(node.stats().foreign_drop_visits - before, visits) << "mds " << i;
    EXPECT_EQ(c.check_invariants(), "") << "mds " << i;
    if (i != home) continue;
    // The sweep examined the directory's children, not the cache.
    EXPECT_LT(visits, size_before);
    const auto dropped = [&](const FsNode* n) {
      return std::find(victims.begin(), victims.end(), n->ino()) !=
             victims.end();
    };
    EXPECT_TRUE(dropped(moved_in));
    EXPECT_FALSE(dropped(out));
    EXPECT_FALSE(dropped(pinned));
    EXPECT_FALSE(dropped(subdir));
    EXPECT_FALSE(dropped(replica));
    EXPECT_GT(victims.size(), 1u);  // storm children moved away too
  }
  cache.unpin(cache.peek(pinned->ino()));
}

TEST_F(GigaTest, FetchCostReadsOwnShardOnly) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  ClusterSim cluster(cfg);
  TestClient client;
  client.attach(cluster);
  FsNode* dir = cluster.namespace_info().user_roots[0];
  // Grow the directory until its btree spans several nodes (the default
  // dirfrag thresholds are far above this, so it stays unfragmented).
  storm(cluster, client, dir, "bulk", 400);
  ASSERT_FALSE(cluster.dirfrag().is_fragmented(dir->ino()));
  FsNode* child = dir->children_list().front();
  const InodeId ino = dir->ino();
  const MdsId home = cluster.mds(0).authority_for(dir);
  const MdsId other = static_cast<MdsId>((home + 1) % cluster.num_mds());
  const SimTime now = cluster.sim().now();

  // Unfragmented: a whole-directory fetch everywhere.
  const std::uint32_t full = cluster.mds(home).fetch_cost_probe(child);
  ASSERT_GE(full, 3u);  // need headroom for the sharded assertions below
  EXPECT_EQ(cluster.mds(other).fetch_cost_probe(child), full);

  // Legacy hash: the historical even 1/num_mds split, exactly.
  cluster.dirfrag().fragment(ino, home, /*giga=*/false, false,
                             dir->child_count(), 0.0, now, kSecond);
  const std::uint32_t even = std::max<std::uint32_t>(
      1, full / static_cast<std::uint32_t>(cluster.num_mds()));
  EXPECT_EQ(cluster.mds(home).fetch_cost_probe(child), even);
  EXPECT_EQ(cluster.mds(other).fetch_cost_probe(child), even);
  cluster.dirfrag().unfragment(ino);

  // Giga, freshly fragmented (bitmap=1): every dentry still lives at
  // home — home pays the full fetch, everyone else the 1-node floor.
  cluster.dirfrag().fragment(ino, home, /*giga=*/true, false,
                             dir->child_count(), 0.0, now, kSecond);
  EXPECT_EQ(cluster.mds(home).fetch_cost_probe(child), full);
  EXPECT_EQ(cluster.mds(other).fetch_cost_probe(child), 1u);

  // After a split the cost follows the exact per-node dentry share.
  const std::uint64_t total = dir->child_count();
  cluster.dirfrag().split(ino, 0, total - total / 3, total / 3, now);
  const std::uint32_t at_home = cluster.mds(home).fetch_cost_probe(child);
  const std::uint32_t at_other = cluster.mds(other).fetch_cost_probe(child);
  EXPECT_LT(at_home, full);
  EXPECT_LT(at_other, full);
  EXPECT_GT(at_home, at_other);  // home kept the larger share
  EXPECT_EQ(at_home,
            std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(
                       static_cast<double>(full) *
                       cluster.dirfrag().shard_fraction(ino, home))));
  cluster.dirfrag().unfragment(ino);
}

}  // namespace
}  // namespace mdsim
