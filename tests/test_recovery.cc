// Crash-consistent migration (the double-commit under fire) and the
// restart lifecycle. The matrix kills the exporter or the importer at
// every interesting point of the transaction and checks that exactly one
// node ends up the authority, with no frozen subtrees or leaked deferred
// requests left behind.
#include <gtest/gtest.h>

#include <memory>

#include "test_util.h"

namespace mdsim {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void build(std::uint64_t seed = 42) {
    SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree, 3, seed);
    cfg.mds.min_migration_items = 2;
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

  /// Largest user home (non-trivial transferred state) plus its src/dst.
  FsNode* pick_home(MdsId* src, MdsId* dst) {
    FsNode* home = cluster->namespace_info().user_roots[0];
    for (FsNode* u : cluster->namespace_info().user_roots) {
      if (u->subtree_size() > home->subtree_size()) home = u;
    }
    *src = cluster->mds(0).authority_for(home);
    *dst = (*src + 1) % cluster->num_mds();
    return home;
  }

  void expect_clean(MdsId skip = kInvalidMds) {
    for (int i = 0; i < cluster->num_mds(); ++i) {
      if (i == skip) continue;
      EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
      EXPECT_EQ(cluster->mds(i).frozen_subtrees(), 0u) << i;
      EXPECT_EQ(cluster->mds(i).deferred_requests(), 0u) << i;
      EXPECT_FALSE(cluster->mds(i).migrating()) << i;
    }
  }

  std::unique_ptr<ClusterSim> cluster;
  TestClient client;
};

TEST_F(RecoveryTest, ImporterDeadBeforePrepareAbortsCleanly) {
  build();
  MdsId src, dst;
  FsNode* home = pick_home(&src, &dst);
  warm_subtree(home);

  // The importer dies; the exporter does not know yet and initiates a
  // migration towards the corpse. The prepare is dropped on the floor and
  // no ack ever comes: the watchdog (or the death detection) aborts, the
  // subtree unfreezes, and the exporter never stopped being authority.
  cluster->fail_mds(dst);
  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  EXPECT_EQ(cluster->mds(src).frozen_subtrees(), 1u);

  run_for(6 * kSecond);
  EXPECT_EQ(cluster->mds(src).stats().migrations_aborted, 1u);
  EXPECT_EQ(cluster->mds(src).stats().migrations_out, 0u);
  EXPECT_EQ(cluster->mds(0).authority_for(home), src);
  expect_clean(dst);
}

TEST_F(RecoveryTest, ExporterDeadBeforeCommitPointRollsBackImporter) {
  build();
  MdsId src, dst;
  FsNode* home = pick_home(&src, &dst);
  warm_subtree(home);

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  // Step in fine increments until the prepare has landed (the importer
  // records the inbound transaction the instant it arrives), then kill
  // the exporter before it can process the ack. The commit point was
  // never passed: the partition still names the exporter.
  for (int i = 0; i < 10000 && !cluster->mds(dst).migrating(); ++i) {
    run_for(from_micros(50));
  }
  ASSERT_TRUE(cluster->mds(dst).migrating());
  cluster->fail_mds(src);
  ASSERT_EQ(cluster->mds(0).authority_for(home), src);  // never flipped

  // The importer resolves by timeout/detection: the map does not name it,
  // so it rolls the installed state back. The dead exporter's territory
  // (including this subtree) is then taken over by the survivors after
  // the quorum-takeover grace.
  run_for(12 * kSecond);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_in, 0u);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_rolled_back, 1u);
  const MdsId final_auth = cluster->mds(0).authority_for(home);
  EXPECT_NE(final_auth, src);  // takeover moved it off the corpse
  expect_clean(src);
}

TEST_F(RecoveryTest, ExporterDeadAfterCommitPointImporterFinalizes) {
  build();
  MdsId src, dst;
  FsNode* home = pick_home(&src, &dst);
  warm_subtree(home);

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  // Step until the partition flips (the exporter processed the ack —
  // THE commit point), then kill the exporter inside the journal-append
  // window before the Commit message leaves.
  for (int i = 0;
       i < 200000 && cluster->mds(0).authority_for(home) != dst; ++i) {
    run_for(from_micros(50));
  }
  ASSERT_EQ(cluster->mds(0).authority_for(home), dst);
  cluster->fail_mds(src);

  // The commit never arrives, but the importer's resolution consults the
  // shared partition map, finds itself the authority, and finalizes.
  run_for(8 * kSecond);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_in, 1u);
  EXPECT_EQ(cluster->mds(dst).stats().migrations_rolled_back, 0u);
  EXPECT_EQ(cluster->mds(0).authority_for(home), dst);
  EXPECT_GT(cluster->mds(dst).imported_subtrees().count(home->ino()), 0u);
  expect_clean(src);
}

TEST_F(RecoveryTest, ImporterDeadAfterAckSurvivorsInheritSubtree) {
  build();
  MdsId src, dst;
  FsNode* home = pick_home(&src, &dst);
  warm_subtree(home);

  ASSERT_TRUE(cluster->mds(src).migrate_subtree(home, dst));
  for (int i = 0;
       i < 200000 && cluster->mds(0).authority_for(home) != dst; ++i) {
    run_for(from_micros(50));
  }
  ASSERT_EQ(cluster->mds(0).authority_for(home), dst);
  // The importer dies right after the authority flipped to it.
  cluster->fail_mds(dst);

  // Survivors detect the death and — after the takeover grace —
  // redistribute the importer's delegations, the freshly imported
  // subtree included. Exactly one live authority remains.
  run_for(12 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster->partition());
  ASSERT_NE(subtree, nullptr);
  EXPECT_TRUE(subtree->delegations_of(dst).empty());
  const MdsId final_auth = cluster->mds(0).authority_for(home);
  EXPECT_NE(final_auth, dst);
  EXPECT_FALSE(cluster->mds(final_auth).failed());
  expect_clean(dst);
}

TEST_F(RecoveryTest, RestartReplaysJournalWithRealDiskLatency) {
  build();
  MdsId src, dst;
  FsNode* home = pick_home(&src, &dst);
  warm_subtree(home);
  // Dirty some metadata so the bounded journal has a working set to
  // replay on restart.
  for (FsNode* c : home->children_list()) {
    client.send(src, OpType::kSetattr, c);
  }
  run_for(2 * kSecond);
  ASSERT_GT(cluster->mds(src).journal().live_entries(), 0u);

  cluster->fail_mds(src);
  run_for(10 * kSecond);  // detected + grace elapsed + taken over
  const std::uint64_t reads_before = cluster->mds(src).disk().reads();
  cluster->recover_mds(src);
  EXPECT_TRUE(cluster->mds(src).recovering());
  run_for(4 * kSecond);
  EXPECT_FALSE(cluster->mds(src).recovering());
  // The replay performed real I/O on the restarting node.
  EXPECT_GT(cluster->mds(src).disk().reads(), reads_before);

  // Rejoin restored the node as a live peer everywhere (the liveness view
  // is symmetric again).
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_TRUE(cluster->mds(i).peer_alive(src)) << i;
  }
  const auto& incidents = cluster->fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_FALSE(incidents[0].open);
  EXPECT_TRUE(incidents[0].has(incidents[0].rejoined_at));
  expect_clean();
}

}  // namespace
}  // namespace mdsim
