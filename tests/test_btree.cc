#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/btree.h"

namespace mdsim {
namespace {

DirRecord rec(InodeId ino) { return DirRecord{ino, 1, false}; }

std::string key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

TEST(BTree, InsertFindErase) {
  DirBTree t(8);
  EXPECT_TRUE(t.insert("a", rec(1), nullptr));
  EXPECT_TRUE(t.insert("b", rec(2), nullptr));
  EXPECT_FALSE(t.insert("a", rec(3), nullptr));  // overwrite
  ASSERT_NE(t.find("a", nullptr), nullptr);
  EXPECT_EQ(t.find("a", nullptr)->ino, 3u);
  EXPECT_EQ(t.find("zzz", nullptr), nullptr);
  EXPECT_TRUE(t.erase("a", nullptr));
  EXPECT_FALSE(t.erase("a", nullptr));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(BTree, ManyInsertsKeepInvariants) {
  DirBTree t(8);
  for (int i = 0; i < 2000; ++i) {
    t.insert(key(i), rec(static_cast<InodeId>(i + 1)), nullptr);
    if (i % 200 == 0) {
      ASSERT_EQ(t.check_invariants(), "") << "at " << i;
    }
  }
  EXPECT_EQ(t.size(), 2000u);
  EXPECT_GT(t.height(), 2u);
  EXPECT_EQ(t.check_invariants(), "");
  for (int i = 0; i < 2000; ++i) {
    const DirRecord* r = t.find(key(i), nullptr);
    ASSERT_NE(r, nullptr) << key(i);
    EXPECT_EQ(r->ino, static_cast<InodeId>(i + 1));
  }
}

TEST(BTree, ScanIsOrderedAndComplete) {
  DirBTree t(8);
  Rng rng(3);
  std::map<std::string, InodeId> expect;
  for (int i = 0; i < 500; ++i) {
    const std::string k = key(static_cast<int>(rng.uniform(10000)));
    t.insert(k, rec(static_cast<InodeId>(i + 1)), nullptr);
    expect[k] = static_cast<InodeId>(i + 1);
  }
  std::vector<std::string> seen;
  t.scan([&](const std::string& k, const DirRecord& r) {
    seen.push_back(k);
    EXPECT_EQ(r.ino, expect.at(k));
  }, nullptr);
  EXPECT_EQ(seen.size(), expect.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(BTree, EraseEverythingShrinksToEmptyRoot) {
  DirBTree t(6);
  for (int i = 0; i < 300; ++i) t.insert(key(i), rec(1), nullptr);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.erase(key(i), nullptr)) << key(i);
    if (i % 50 == 0) {
      ASSERT_EQ(t.check_invariants(), "") << "at " << i;
    }
  }
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.check_invariants(), "");
}

TEST(BTree, FindCostGrowsWithDepth) {
  DirBTree t(8);
  BTreeIoCost small_cost;
  t.insert("x", rec(1), nullptr);
  t.find("x", &small_cost);
  for (int i = 0; i < 5000; ++i) t.insert(key(i), rec(1), nullptr);
  BTreeIoCost big_cost;
  t.find(key(2500), &big_cost);
  EXPECT_GT(big_cost.nodes_read, small_cost.nodes_read);
  EXPECT_EQ(big_cost.nodes_read, t.height());
}

TEST(BTree, InsertCostIncludesSplits) {
  DirBTree t(4);
  std::uint32_t max_writes = 0;
  for (int i = 0; i < 200; ++i) {
    BTreeIoCost c;
    t.insert(key(i), rec(1), &c);
    EXPECT_GE(c.nodes_written, 1u);
    max_writes = std::max(max_writes, c.nodes_written);
  }
  // Splits must have happened at order 4 with 200 keys.
  EXPECT_GT(max_writes, 1u);
}

TEST(BTree, OverwriteDirtiesOneNode) {
  DirBTree t(8);
  for (int i = 0; i < 50; ++i) t.insert(key(i), rec(1), nullptr);
  // Overwriting a key dirties its leaf only, every time.
  for (std::uint64_t v = 2; v < 4; ++v) {
    BTreeIoCost c;
    t.insert(key(10), rec(v), &c);
    EXPECT_EQ(c.nodes_written, 1u);
  }
}

class BTreeRandomized : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BTreeRandomized, RandomOpsMatchReferenceMap) {
  const std::uint32_t order = GetParam();
  DirBTree t(order);
  std::map<std::string, DirRecord> ref;
  Rng rng(order * 7919);
  for (int step = 0; step < 4000; ++step) {
    const std::string k = key(static_cast<int>(rng.uniform(700)));
    const double action = rng.uniform_double();
    if (action < 0.55) {
      const DirRecord r = rec(rng.uniform(1 << 20) + 1);
      const bool fresh = t.insert(k, r, nullptr);
      EXPECT_EQ(fresh, ref.find(k) == ref.end());
      ref[k] = r;
    } else if (action < 0.85) {
      const bool erased = t.erase(k, nullptr);
      EXPECT_EQ(erased, ref.erase(k) > 0);
    } else {
      const DirRecord* r = t.find(k, nullptr);
      auto it = ref.find(k);
      if (it == ref.end()) {
        EXPECT_EQ(r, nullptr);
      } else {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(*r, it->second);
      }
    }
    if (step % 500 == 0) {
      ASSERT_EQ(t.check_invariants(), "") << "step " << step;
      ASSERT_EQ(t.size(), ref.size());
    }
  }
  EXPECT_EQ(t.check_invariants(), "");
  EXPECT_EQ(t.size(), ref.size());
  // Full content equality via scan.
  auto it = ref.begin();
  t.scan([&](const std::string& k, const DirRecord& r) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(r, it->second);
    ++it;
  }, nullptr);
  EXPECT_EQ(it, ref.end());
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeRandomized,
                         ::testing::Values(4u, 6u, 8u, 16u, 32u, 64u));

}  // namespace
}  // namespace mdsim
