#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fstree/tree.h"
#include "sim/simulation.h"
#include "storage/anchor_table.h"
#include "storage/disk_model.h"
#include "storage/journal.h"
#include "storage/object_store.h"

namespace mdsim {
namespace {

// --- DiskModel --------------------------------------------------------

TEST(DiskModel, TransactionTimingScalesWithNodes) {
  Simulation sim;
  DiskParams params;
  params.transaction_time = kMillisecond;
  params.per_node_time = 100 * kMicrosecond;
  params.access_latency = 0;
  DiskModel disk(sim, params, "d");
  std::vector<SimTime> done;
  disk.read_object(1, [&] { done.push_back(sim.now()); });
  disk.read_object(11, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], kMillisecond);
  EXPECT_EQ(done[1], kMillisecond + (kMillisecond + kMillisecond));
  EXPECT_EQ(disk.reads(), 2u);
}

TEST(DiskModel, JournalIndependentOfStore) {
  Simulation sim;
  DiskParams params;
  params.transaction_time = 10 * kMillisecond;
  params.journal_append_time = kMillisecond;
  params.access_latency = 0;
  DiskModel disk(sim, params, "d");
  SimTime journal_done = 0;
  disk.read_object(1, [] {});
  disk.journal_append([&] { journal_done = sim.now(); });
  sim.run();
  // The journal device does not queue behind the store transaction.
  EXPECT_EQ(journal_done, kMillisecond);
  EXPECT_EQ(disk.journal_appends(), 1u);
}

// --- BoundedJournal ------------------------------------------------------

TEST(Journal, WritebackOnExpiry) {
  std::vector<InodeId> written;
  BoundedJournal j(3, [&](InodeId ino) { written.push_back(ino); });
  j.append(1);
  j.append(2);
  j.append(3);
  EXPECT_TRUE(written.empty());
  j.append(4);  // pushes 1 off the tail
  EXPECT_EQ(written, std::vector<InodeId>{1});
  EXPECT_EQ(j.live_entries(), 3u);
}

TEST(Journal, SupersededEntriesAbsorbWrites) {
  std::vector<InodeId> written;
  BoundedJournal j(3, [&](InodeId ino) { written.push_back(ino); });
  j.append(1);
  j.append(2);
  j.append(1);  // supersedes the first entry
  j.append(3);  // expires slot(1,seq0): superseded, no writeback
  EXPECT_TRUE(written.empty());
  j.append(4);  // expires slot(2): live -> writeback
  EXPECT_EQ(written, std::vector<InodeId>{2});
  EXPECT_GT(j.absorption_rate(), 0.0);
}

TEST(Journal, ReplayReturnsWorkingSetOldestFirst) {
  BoundedJournal j(10, nullptr);
  j.append(5);
  j.append(6);
  j.append(5);  // 5 moves to the head
  const auto ws = j.replay();
  EXPECT_EQ(ws, (std::vector<InodeId>{6, 5}));
  EXPECT_TRUE(j.contains(5));
  EXPECT_TRUE(j.contains(6));
  EXPECT_FALSE(j.contains(7));
}

TEST(Journal, ReplayNeverExceedsCapacity) {
  BoundedJournal j(16, nullptr);
  for (InodeId i = 0; i < 1000; ++i) j.append(i % 40);
  EXPECT_LE(j.replay().size(), 16u);
  EXPECT_EQ(j.total_appends(), 1000u);
}

// Reference model: the journal as a deque of (ino, seq) slots plus an
// ino -> newest-seq map. The ring-and-table journal must match it append
// for append.
class ReferenceJournal {
 public:
  explicit ReferenceJournal(std::size_t capacity) : capacity_(capacity) {}

  void append(InodeId ino) {
    log_.push_back(Slot{ino, next_seq_});
    live_[ino] = next_seq_;
    ++next_seq_;
    while (log_.size() > capacity_) {
      const Slot tail = log_.front();
      log_.pop_front();
      auto it = live_.find(tail.ino);
      if (it != live_.end() && it->second == tail.seq) {
        live_.erase(it);
        ++writebacks;
        written.push_back(tail.ino);
      } else {
        ++superseded;
      }
    }
  }

  std::vector<InodeId> replay() const {
    std::vector<InodeId> out;
    for (const Slot& s : log_) {
      auto it = live_.find(s.ino);
      if (it != live_.end() && it->second == s.seq) out.push_back(s.ino);
    }
    return out;
  }
  bool contains(InodeId ino) const { return live_.count(ino) != 0; }
  std::size_t live_entries() const { return live_.size(); }
  double absorption_rate() const {
    const std::uint64_t expired = writebacks + superseded;
    return expired == 0 ? 0.0
                        : static_cast<double>(superseded) /
                              static_cast<double>(expired);
  }
  /// Inode of the oldest entry, the next to leave (log must be non-empty).
  InodeId oldest() const { return log_.front().ino; }
  bool full() const { return log_.size() == capacity_; }

  std::vector<InodeId> written;
  std::uint64_t writebacks = 0;
  std::uint64_t superseded = 0;

 private:
  struct Slot {
    InodeId ino;
    std::uint64_t seq;
  };
  std::size_t capacity_;
  std::deque<Slot> log_;
  std::unordered_map<InodeId, std::uint64_t> live_;
  std::uint64_t next_seq_ = 0;
};

TEST(Journal, MatchesReferenceModelOnRandomStreams) {
  for (std::size_t capacity : {1u, 2u, 3u, 7u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1000 + capacity);
      std::vector<InodeId> written;
      BoundedJournal j(capacity, [&](InodeId ino) { written.push_back(ino); });
      ReferenceJournal ref(capacity);
      // Inodes from a pool a few times the capacity, so streams mix fresh
      // entries, superseded ones and expiries; ino 0 is a legal key too.
      const std::uint64_t pool = 3 * capacity + 2;
      std::size_t tail_reappends = 0;
      for (int step = 0; step < 3000; ++step) {
        InodeId ino = rng.uniform(pool);
        if (ref.full() && rng.bernoulli(0.15)) {
          ino = ref.oldest();  // re-append the tail inode at wrap
          ++tail_reappends;
        }
        j.append(ino);
        ref.append(ino);
        const std::string at = "capacity " + std::to_string(capacity) +
                               " seed " + std::to_string(seed) + " step " +
                               std::to_string(step);
        ASSERT_EQ(written, ref.written) << at;
        ASSERT_EQ(j.replay(), ref.replay()) << at;
        ASSERT_EQ(j.live_entries(), ref.live_entries()) << at;
        ASSERT_EQ(j.writebacks(), ref.writebacks) << at;
        ASSERT_EQ(j.absorption_rate(), ref.absorption_rate()) << at;
        for (InodeId probe = 0; probe < pool; ++probe) {
          ASSERT_EQ(j.contains(probe), ref.contains(probe)) << at;
        }
      }
      EXPECT_EQ(j.total_appends(), 3000u);
      EXPECT_GT(tail_reappends, 0u);
    }
  }
}

TEST(Journal, TailReappendAtWrapIsSupersededNotWrittenBack) {
  std::vector<InodeId> written;
  BoundedJournal j(2, [&](InodeId ino) { written.push_back(ino); });
  j.append(1);
  j.append(2);
  j.append(1);  // the new entry lands before (1, seq 0) leaves: a hole
  EXPECT_TRUE(written.empty());
  EXPECT_EQ(j.writebacks(), 0u);
  EXPECT_EQ(j.absorption_rate(), 1.0);
  EXPECT_EQ(j.replay(), (std::vector<InodeId>{2, 1}));
}

// --- ObjectStore -----------------------------------------------------------

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : store(8) {
    dir = tree.mkdir(tree.root(), "d");
    for (int i = 0; i < 100; ++i) {
      tree.create_file(dir, "f" + std::to_string(i));
    }
  }
  FsTree tree;
  ObjectStore store;
  FsNode* dir;
};

TEST_F(ObjectStoreTest, MaterializesFromGroundTruth) {
  EXPECT_EQ(store.materialized_objects(), 0u);
  const std::uint32_t nodes = store.full_fetch_nodes(dir);
  EXPECT_GT(nodes, 1u);  // 100 entries at order 8 spans several nodes
  EXPECT_EQ(store.materialized_objects(), 1u);
  DirBTree* obj = store.object_for_testing(dir);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->size(), 100u);
  EXPECT_EQ(obj->check_invariants(), "");
}

TEST_F(ObjectStoreTest, LookupCostIsRootToLeaf) {
  const std::uint32_t cost = store.lookup_nodes(dir, "f42");
  DirBTree* obj = store.object_for_testing(dir);
  EXPECT_EQ(cost, obj->height());
}

TEST_F(ObjectStoreTest, IncrementalUpdatesTrackTree) {
  FsNode* f = tree.create_file(dir, "new_file");
  const std::uint32_t dirtied = store.apply_create(
      dir, "new_file", DirRecord{f->ino(), 1, false});
  EXPECT_GE(dirtied, 1u);
  DirBTree* obj = store.object_for_testing(dir);
  EXPECT_EQ(obj->size(), 101u);
  EXPECT_GE(store.apply_remove(dir, "f0"), 1u);
  EXPECT_EQ(obj->size(), 100u);
  EXPECT_EQ(obj->check_invariants(), "");
}

TEST_F(ObjectStoreTest, DropReleasesObject) {
  store.full_fetch_nodes(dir);
  EXPECT_EQ(store.materialized_objects(), 1u);
  store.drop(dir);
  EXPECT_EQ(store.materialized_objects(), 0u);
}

// --- AnchorTable --------------------------------------------------------

TEST(AnchorTable, AnchorAndResolve) {
  AnchorTable t;
  // File 10 under dirs 3 <- 2 <- root(1).
  t.anchor(10, {3, 2, 1});
  EXPECT_TRUE(t.is_anchored(10));
  EXPECT_EQ(t.resolve(10), (std::vector<InodeId>{3, 2, 1}));
  EXPECT_EQ(t.size(), 4u);  // 10, 3, 2, 1
}

TEST(AnchorTable, RefcountsShareAncestors) {
  AnchorTable t;
  t.anchor(10, {3, 2, 1});
  t.anchor(11, {3, 2, 1});
  EXPECT_EQ(t.size(), 5u);  // 10, 11, 3, 2, 1
  EXPECT_EQ(t.refs(3), 2u);
  EXPECT_TRUE(t.unanchor(10));
  EXPECT_FALSE(t.is_anchored(10));
  EXPECT_TRUE(t.is_anchored(11));
  EXPECT_EQ(t.refs(3), 1u);
  EXPECT_TRUE(t.unanchor(11));
  EXPECT_EQ(t.size(), 0u);
}

TEST(AnchorTable, UnanchorUnknownFails) {
  AnchorTable t;
  EXPECT_FALSE(t.unanchor(99));
}

TEST(AnchorTable, DirectoryMoveRewiresChains) {
  AnchorTable t;
  t.anchor(10, {3, 2, 1});
  // Directory 3 moves from under 2 to under 5 (5 under 1).
  t.on_directory_move(3, {5, 1});
  EXPECT_EQ(t.resolve(10), (std::vector<InodeId>{3, 5, 1}));
  // Old ancestor 2 dropped once its refcount drained.
  EXPECT_EQ(t.refs(2), 0u);
  EXPECT_GT(t.refs(5), 0u);
  EXPECT_TRUE(t.unanchor(10));
  EXPECT_EQ(t.size(), 0u);
}

TEST(AnchorTable, MoveOfUntrackedDirIsNoop) {
  AnchorTable t;
  t.anchor(10, {3, 2, 1});
  t.on_directory_move(77, {1});
  EXPECT_EQ(t.size(), 4u);
}

TEST(AnchorTable, TableStaysProportionalToLinks) {
  AnchorTable t;
  // 100 anchored files sharing one deep chain: size = files + chain.
  for (InodeId f = 100; f < 200; ++f) t.anchor(f, {9, 8, 7, 1});
  EXPECT_EQ(t.size(), 104u);
  for (InodeId f = 100; f < 200; ++f) t.unanchor(f);
  EXPECT_EQ(t.size(), 0u);
}

}  // namespace
}  // namespace mdsim
