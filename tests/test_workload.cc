#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fstree/generator.h"
#include "workload/flash_crowd.h"
#include "workload/general.h"
#include "workload/op_mix.h"
#include "workload/scientific.h"
#include "workload/shifting.h"

namespace mdsim {
namespace {

TEST(OpMix, SampleFrequenciesMatchWeights) {
  OpMix mix = OpMix::general_purpose();
  Rng rng(1);
  std::map<OpType, int> counts;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[mix.sample(rng)];
  // stat dominates; rename/chmod rare (the property LH depends on).
  EXPECT_GT(counts[OpType::kStat], counts[OpType::kOpen]);
  EXPECT_GT(counts[OpType::kOpen], counts[OpType::kCreate]);
  EXPECT_LT(counts[OpType::kRename], kN / 50);
  EXPECT_LT(counts[OpType::kChmod], kN / 50);
  EXPECT_NEAR(counts[OpType::kStat] / static_cast<double>(kN), 0.42, 0.02);
}

TEST(OpMix, CreateHeavyFavoursCreates) {
  OpMix mix = OpMix::create_heavy();
  Rng rng(2);
  std::map<OpType, int> counts;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) ++counts[mix.sample(rng)];
  // Creates dominate every other single op type by a wide margin, and
  // creations far outnumber deletions (the namespace grows).
  for (const auto& [op, n] : counts) {
    if (op != OpType::kCreate) {
      EXPECT_GT(counts[OpType::kCreate], n);
    }
  }
  EXPECT_GT(counts[OpType::kCreate],
            3 * (counts[OpType::kUnlink] + counts[OpType::kRmdir]));
}

class GeneralWorkloadTest : public ::testing::Test {
 protected:
  GeneralWorkloadTest() {
    NamespaceParams params;
    params.num_users = 8;
    params.nodes_per_user = 150;
    info = generate_namespace(tree, params);
  }
  FsTree tree;
  NamespaceInfo info;
};

TEST_F(GeneralWorkloadTest, ProducesValidOperations) {
  GeneralWorkload wl(tree, info.user_roots);
  Rng rng(7);
  for (ClientId c = 0; c < 4; ++c) {
    for (int i = 0; i < 500; ++i) {
      Operation op;
      const SimTime delay = wl.next(c, i * kMillisecond, rng, &op);
      ASSERT_NE(delay, kNever);
      ASSERT_NE(op.target, nullptr);
      EXPECT_TRUE(tree.alive(op.target));
      if (op.op == OpType::kCreate || op.op == OpType::kMkdir) {
        EXPECT_TRUE(op.target->is_dir());
        EXPECT_FALSE(op.name.empty());
      }
      if (op.op == OpType::kRename || op.op == OpType::kLink) {
        ASSERT_NE(op.secondary, nullptr);
      }
    }
  }
}

TEST_F(GeneralWorkloadTest, ExhibitsDirectoryLocality) {
  GeneralWorkload wl(tree, info.user_roots);
  Rng rng(11);
  Operation prev, cur;
  wl.next(0, 0, rng, &prev);
  int near = 0, total = 0;
  for (int i = 1; i < 2000; ++i) {
    wl.next(0, i * kMillisecond, rng, &cur);
    // "Near": same directory or parent/child relationship.
    FsNode* pd = prev.target->is_dir() ? prev.target : prev.target->parent();
    FsNode* cd = cur.target->is_dir() ? cur.target : cur.target->parent();
    if (pd == cd || pd->parent() == cd || cd->parent() == pd) ++near;
    ++total;
    prev = cur;
  }
  EXPECT_GT(static_cast<double>(near) / total, 0.5);
}

TEST_F(GeneralWorkloadTest, OpenFollowedByClose) {
  GeneralWorkload wl(tree, info.user_roots);
  Rng rng(13);
  FsNode* opened = nullptr;
  int pairs = 0, opens = 0;
  for (int i = 0; i < 5000; ++i) {
    Operation op;
    wl.next(0, i * kMillisecond, rng, &op);
    if (opened != nullptr) {
      if (op.op == OpType::kClose && op.target == opened) ++pairs;
      opened = nullptr;
    }
    if (op.op == OpType::kOpen) {
      opened = op.target;
      ++opens;
    }
  }
  ASSERT_GT(opens, 50);
  EXPECT_GT(pairs, opens * 8 / 10);  // nearly every open paired
}

TEST_F(GeneralWorkloadTest, ReaddirFollowedByStats) {
  GeneralWorkload wl(tree, info.user_roots);
  Rng rng(17);
  int readdirs = 0, stats_after = 0;
  bool in_burst = false;
  FsNode* burst_dir = nullptr;
  for (int i = 0; i < 5000; ++i) {
    Operation op;
    wl.next(0, i * kMillisecond, rng, &op);
    if (in_burst && op.op == OpType::kStat &&
        op.target->parent() == burst_dir) {
      ++stats_after;
    }
    in_burst = false;
    if (op.op == OpType::kReaddir) {
      ++readdirs;
      in_burst = true;
      burst_dir = op.target;
    }
  }
  ASSERT_GT(readdirs, 20);
  EXPECT_GT(stats_after, readdirs / 2);
}

TEST_F(GeneralWorkloadTest, ShiftMovesClientsAtTheConfiguredTime) {
  GeneralWorkload wl(tree, info.user_roots);
  WorkloadShift shift;
  shift.at = 10 * kSecond;
  shift.fraction = 1.0;  // everyone
  shift.destinations = {info.user_roots[3]};
  shift.mix = OpMix::create_heavy();
  wl.set_shift(shift);
  Rng rng(19);
  Operation op;
  wl.next(0, 0, rng, &op);
  // After the shift time, ops target the destination subtree.
  int in_dest = 0, total = 0;
  for (int i = 0; i < 300; ++i) {
    wl.next(0, 11 * kSecond + i, rng, &op);
    if (FsTree::is_ancestor_of(info.user_roots[3], op.target)) ++in_dest;
    ++total;
  }
  EXPECT_GT(static_cast<double>(in_dest) / total, 0.6);
}

TEST_F(GeneralWorkloadTest, ShiftFractionRespected) {
  GeneralWorkload wl(tree, info.user_roots);
  WorkloadShift shift;
  shift.at = 0;
  shift.fraction = 0.5;
  shift.destinations = {info.user_roots[0]};
  shift.mix = OpMix::create_heavy();
  wl.set_shift(shift);
  Rng rng(23);
  int shifted = 0;
  constexpr int kClients = 200;
  for (ClientId c = 0; c < kClients; ++c) {
    Operation op;
    wl.next(c, kSecond, rng, &op);
    const FsNode* region = wl.region_of(c);
    if (FsTree::is_ancestor_of(info.user_roots[0], region)) ++shifted;
  }
  EXPECT_NEAR(shifted, kClients / 2, kClients / 8);
}

// --- scientific -----------------------------------------------------------

TEST(ScientificWorkload, BurstsConvergeOnSharedTargets) {
  FsTree tree;
  NamespaceParams params;
  params.num_users = 2;
  params.nodes_per_user = 30;
  params.num_projects = 1;
  params.project_runs = 2;
  params.project_dir_files = 50;
  NamespaceInfo info = generate_namespace(tree, params);
  std::vector<FsNode*> runs;
  for (FsNode* c : info.project_roots[0]->children_list()) {
    runs.push_back(c);
  }
  ScientificWorkload wl(tree, runs);
  Rng rng(29);
  // First op of burst 0 for every client must hit the same file or dir.
  std::set<const FsNode*> first_targets;
  for (ClientId c = 0; c < 32; ++c) {
    Operation op;
    wl.next(c, 0, rng, &op);
    const FsNode* t = op.target->is_dir() ? op.target : op.target;
    first_targets.insert(t);
  }
  EXPECT_EQ(first_targets.size(), 1u);
}

TEST(ScientificWorkload, CheckpointStormCreatesDistinctFiles) {
  FsTree tree;
  NamespaceParams params;
  params.num_users = 2;
  params.nodes_per_user = 30;
  params.num_projects = 1;
  NamespaceInfo info = generate_namespace(tree, params);
  std::vector<FsNode*> runs;
  for (FsNode* c : info.project_roots[0]->children_list()) {
    runs.push_back(c);
  }
  ScientificWorkloadParams sp;
  sp.n_to_1_fraction = 0.0;  // all bursts are N-to-N create storms
  ScientificWorkload wl(tree, runs, sp);
  Rng rng(31);
  std::set<std::string> names;
  for (ClientId c = 0; c < 16; ++c) {
    Operation op;
    wl.next(c, 0, rng, &op);
    EXPECT_EQ(op.op, OpType::kCreate);
    EXPECT_TRUE(op.target->is_dir());
    EXPECT_TRUE(names.insert(op.name).second) << "duplicate " << op.name;
  }
}

// --- flash crowd -------------------------------------------------------

TEST(FlashCrowd, IdleUntilStartThenTightLoop) {
  FsTree tree;
  FsNode* d = tree.mkdir(tree.root(), "d");
  FsNode* f = tree.create_file(d, "hot");
  FlashCrowdParams params;
  params.start = 8 * kSecond;
  params.duration = 200 * kMillisecond;
  params.think = kMillisecond;
  params.skew = kMillisecond;
  FlashCrowdWorkload wl(tree, f, params);
  Rng rng(37);

  Operation op;
  // Before the start: the delay lands us at/after the start line.
  const SimTime d0 = wl.next(0, 0, rng, &op);
  EXPECT_GE(d0, 8 * kSecond);
  EXPECT_LE(d0, 8 * kSecond + params.skew);
  EXPECT_EQ(op.op, OpType::kOpen);
  EXPECT_EQ(op.target, f);

  // During the crowd: tight loop on the same file.
  const SimTime d1 = wl.next(0, 8 * kSecond + kMillisecond, rng, &op);
  EXPECT_LT(d1, 50 * kMillisecond);
  EXPECT_EQ(op.target, f);

  // After the window: done.
  EXPECT_EQ(wl.next(0, 9 * kSecond, rng, &op), kNever);
}

TEST(FlashCrowd, StopsWhenTargetDeleted) {
  FsTree tree;
  FsNode* d = tree.mkdir(tree.root(), "d");
  FsNode* f = tree.create_file(d, "hot");
  FlashCrowdWorkload wl(tree, f);
  ASSERT_TRUE(tree.remove(f));
  Operation op;
  Rng rng(41);
  EXPECT_EQ(wl.next(0, 0, rng, &op), kNever);
}

}  // namespace
}  // namespace mdsim
