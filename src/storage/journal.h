// Bounded per-MDS update journal (paper section 4.6).
//
// "We utilize a bounded log structure for the immediate storage of updates
//  on each metadata server. Entries that fall off the end of the log
//  without subsequent modifications are written to a second, more
//  permanent, tier of storage. With a log size on the order of the amount
//  of memory in the MDS ... the log represents an approximation of that
//  node's working set, allowing the memory cache to be quickly preloaded
//  with millions of records on startup or after a failure."
//
// The journal tracks, per inode, its most recent position in the bounded
// log. Re-modifying an inode moves it to the head (the old entry becomes a
// hole and never triggers a writeback). When an entry is pushed off the
// tail and is still live (not superseded), it must be written back to
// tier 2 — the caller receives it via the eviction callback.
//
// Layout: a fixed ring of `capacity` inode slots holds the log, oldest
// first, and an open-addressed table maps each inode with a live entry to
// the ring position of that entry. Both are sized at construction, so an
// append never allocates.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace mdsim {

class BoundedJournal {
 public:
  /// `capacity` = number of log slots (≈ MDS cache size per the paper).
  /// `on_writeback(ino)` fires when a live entry falls off the tail.
  BoundedJournal(std::size_t capacity,
                 std::function<void(InodeId)> on_writeback);

  /// Record an update to `ino`. If the inode already has a live entry it
  /// is superseded (no writeback for the old position).
  void append(InodeId ino);

  /// Inodes with live entries, oldest first — the approximate working set
  /// used to preload the cache on startup/failover (cache warming).
  std::vector<InodeId> replay() const;

  bool contains(InodeId ino) const { return table_[probe(ino)] != kEmpty; }
  std::size_t live_entries() const { return live_count_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_appends() const { return appends_; }
  std::uint64_t writebacks() const { return writebacks_; }
  /// Fraction of expired entries that were superseded (no writeback
  /// needed); high values mean the log is absorbing overwrites.
  double absorption_rate() const;

 private:
  /// Table slot value: 1 + the ring position of the inode's newest entry,
  /// or kEmpty. The key is read back from the ring.
  static constexpr std::uint32_t kEmpty = 0;

  std::size_t ideal(InodeId ino) const {
    return static_cast<std::size_t>(ino * 0x9E3779B97F4A7C15ull) & mask_;
  }
  /// Table position of `ino`, or the empty position where it would go
  /// (linear probing; the table is never more than half full).
  std::size_t probe(InodeId ino) const {
    std::size_t i = ideal(ino);
    while (table_[i] != kEmpty && ring_[table_[i] - 1] != ino) {
      i = (i + 1) & mask_;
    }
    return i;
  }
  /// Remove the record at `i`, shifting displaced ones back.
  void erase_at(std::size_t i);

  std::size_t capacity_;
  std::function<void(InodeId)> on_writeback_;
  std::vector<InodeId> ring_;         // the log: size_ entries from oldest_
  std::size_t oldest_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> table_;  // live inode -> newest ring position
  std::size_t mask_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t superseded_expiries_ = 0;
};

}  // namespace mdsim
