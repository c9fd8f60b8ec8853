#include <gtest/gtest.h>

#include "fstree/generator.h"
#include "test_util.h"
#include "workload/trace.h"

namespace mdsim {
namespace {

std::unique_ptr<GeneralWorkload> make_inner(FsTree& tree,
                                            NamespaceInfo& info) {
  return std::make_unique<GeneralWorkload>(tree, info.user_roots);
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    params.seed = 7;
    params.num_users = 8;
    params.nodes_per_user = 120;
    info = generate_namespace(tree, params);
  }
  NamespaceParams params;
  FsTree tree;
  NamespaceInfo info;
};

TEST_F(TraceTest, RecorderCapturesEverything) {
  RecordingWorkload rec(make_inner(tree, info));
  Rng rng(1);
  Operation op;
  int produced = 0;
  for (ClientId c = 0; c < 4; ++c) {
    for (int i = 0; i < 50; ++i) {
      if (rec.next(c, i * kMillisecond, rng, &op) != kNever) ++produced;
    }
  }
  EXPECT_EQ(rec.trace().size(), static_cast<std::size_t>(produced));
  EXPECT_EQ(rec.trace().num_clients(), 4);
}

TEST_F(TraceTest, ReplayReproducesTheRecordedStream) {
  RecordingWorkload rec(make_inner(tree, info));
  Rng rng(2);
  Operation op;
  std::vector<TraceEvent> want;
  for (int i = 0; i < 200; ++i) {
    const ClientId c = i % 3;
    const SimTime think = rec.next(c, 0, rng, &op);
    ASSERT_NE(think, kNever);
    want.push_back(TraceEvent{c, think, op.op, op.target->ino(),
                              op.secondary ? op.secondary->ino()
                                           : kInvalidInode,
                              op.name});
  }

  // Replay against the SAME tree (no mutations happened): identical.
  TraceWorkload replay(tree, rec.take_trace());
  Rng rng2(99);  // replay ignores the RNG
  std::size_t idx[3] = {0, 0, 0};
  // Recorded events per client, in order:
  std::vector<std::vector<TraceEvent>> per_client(3);
  for (const auto& ev : want) {
    per_client[static_cast<std::size_t>(ev.client)].push_back(ev);
  }
  for (ClientId c = 0; c < 3; ++c) {
    Operation got;
    SimTime think;
    while ((think = replay.next(c, 0, rng2, &got)) != kNever) {
      const auto& exp =
          per_client[static_cast<std::size_t>(c)][idx[c]++];
      EXPECT_EQ(got.op, exp.op);
      EXPECT_EQ(got.target->ino(), exp.target);
      EXPECT_EQ(got.name, exp.name);
      EXPECT_EQ(think, exp.think);
    }
    EXPECT_EQ(idx[c], per_client[static_cast<std::size_t>(c)].size());
  }
  EXPECT_EQ(replay.skipped(), 0u);
}

TEST_F(TraceTest, SaveLoadRoundTrip) {
  RecordingWorkload rec(make_inner(tree, info));
  Rng rng(3);
  Operation op;
  for (int i = 0; i < 100; ++i) rec.next(i % 2, 0, rng, &op);
  const Trace& t = rec.trace();
  const std::string path = ::testing::TempDir() + "/mdsim_trace.csv";
  t.save(path);
  const Trace loaded = Trace::load(path);
  ASSERT_EQ(loaded.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(loaded.events()[i].client, t.events()[i].client);
    EXPECT_EQ(loaded.events()[i].think, t.events()[i].think);
    EXPECT_EQ(loaded.events()[i].op, t.events()[i].op);
    EXPECT_EQ(loaded.events()[i].target, t.events()[i].target);
    EXPECT_EQ(loaded.events()[i].secondary, t.events()[i].secondary);
    EXPECT_EQ(loaded.events()[i].name, t.events()[i].name);
  }
}

TEST_F(TraceTest, LoadMissingFileIsEmpty) {
  EXPECT_TRUE(Trace::load("/nonexistent/mdsim.csv").empty());
}

TEST_F(TraceTest, ReplaySkipsUnlinkedTargets) {
  RecordingWorkload rec(make_inner(tree, info));
  Rng rng(4);
  Operation op;
  for (int i = 0; i < 300; ++i) rec.next(0, 0, rng, &op);
  Trace trace = rec.take_trace();
  // Unlink one traced file from the snapshot before replaying.
  FsNode* victim = nullptr;
  for (const auto& ev : trace.events()) {
    FsNode* n = tree.by_ino(ev.target);
    if (n != nullptr && !n->is_dir()) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const InodeId gone = victim->ino();
  ASSERT_TRUE(tree.remove(victim));

  TraceWorkload replay(tree, std::move(trace));
  Operation got;
  while (replay.next(0, 0, rng, &got) != kNever) {
    EXPECT_NE(got.target->ino(), gone);
  }
  EXPECT_GT(replay.skipped(), 0u);
}

TEST(TraceCluster, RecordedTraceDrivesACluster) {
  // Record a run, rebuild the identical namespace, replay the trace
  // through a full cluster: the replay must execute and serve load.
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  Trace trace;
  {
    FsTree tree;
    NamespaceParams p = cfg.fs;
    NamespaceInfo info = generate_namespace(tree, p);
    RecordingWorkload rec(
        std::make_unique<GeneralWorkload>(tree, info.user_roots));
    Rng rng(5);
    Operation op;
    for (int i = 0; i < 2000; ++i) rec.next(i % 20, 0, rng, &op);
    trace = rec.take_trace();
  }

  ClusterSim cluster(cfg);
  cluster.run_until(0);  // build the matching snapshot
  auto replay =
      std::make_unique<TraceWorkload>(cluster.tree(), std::move(trace));
  TraceWorkload* replay_ptr = replay.get();

  // Drive the replay through a hand-attached cohort.
  ClientCohort clients(cluster.sim(), cluster.network(), cluster.tree(),
                       *replay, cluster.partition(), cluster.dirfrag(),
                       /*count=*/20, /*first_id=*/0, cluster.num_mds(), 5);
  clients.start();
  cluster.sim().run_until(60 * kSecond);

  const std::uint64_t completed = clients.totals().ops_completed;
  EXPECT_GT(completed, 1500u);
  // Ops referencing inodes created during the *recording* run have no
  // counterpart in the fresh snapshot; those (and only those) skip.
  EXPECT_LT(replay_ptr->skipped(), 400u);
}

}  // namespace
}  // namespace mdsim
