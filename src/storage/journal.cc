#include "storage/journal.h"

#include <cassert>
#include <limits>

namespace mdsim {

BoundedJournal::BoundedJournal(std::size_t capacity,
                               std::function<void(InodeId)> on_writeback)
    : capacity_(capacity), on_writeback_(std::move(on_writeback)) {
  // Ring positions are stored off by one in 32 bits.
  assert(capacity_ > 0 &&
         capacity_ < std::numeric_limits<std::uint32_t>::max());
  ring_.resize(capacity_);
  // At most `capacity` live inodes; twice that many slots keeps probe
  // runs short.
  std::size_t slots = 4;
  while (slots < 2 * capacity_) slots <<= 1;
  table_.assign(slots, kEmpty);
  mask_ = slots - 1;
}

void BoundedJournal::append(InodeId ino) {
  ++appends_;
  std::size_t pos = oldest_ + size_;
  bool write_back = false;
  InodeId tail = kInvalidInode;
  if (size_ == capacity_) {
    // Full: the new entry takes the oldest one's slot. The tail is live if
    // it is its inode's newest entry and the new entry does not supersede
    // it (re-appending the tail inode at wrap leaves a hole, as if the new
    // entry were recorded first).
    pos = oldest_;
    if (++oldest_ == capacity_) oldest_ = 0;
    tail = ring_[pos];
    const std::size_t at = probe(tail);
    if (table_[at] == pos + 1 && tail != ino) {
      // Still live: must be persisted to tier 2.
      erase_at(at);
      ++writebacks_;
      write_back = true;
    } else {
      // Superseded by a later entry — a hole; absorbed by the log.
      ++superseded_expiries_;
    }
  } else {
    if (pos >= capacity_) pos -= capacity_;
    ++size_;
  }
  ring_[pos] = ino;
  std::uint32_t& rec = table_[probe(ino)];
  if (rec == kEmpty) ++live_count_;
  rec = static_cast<std::uint32_t>(pos + 1);
  if (write_back && on_writeback_) on_writeback_(tail);
}

void BoundedJournal::erase_at(std::size_t i) {
  std::size_t hole = i;
  std::size_t next = (hole + 1) & mask_;
  // Backward shift: pull displaced records into the hole so every
  // remaining key stays reachable from its ideal slot without tombstones.
  while (table_[next] != kEmpty) {
    const std::size_t home = ideal(ring_[table_[next] - 1]);
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      table_[hole] = table_[next];
      hole = next;
    }
    next = (next + 1) & mask_;
  }
  table_[hole] = kEmpty;
  --live_count_;
}

std::vector<InodeId> BoundedJournal::replay() const {
  std::vector<InodeId> out;
  out.reserve(live_count_);
  std::size_t pos = oldest_;
  for (std::size_t n = 0; n < size_; ++n) {
    if (table_[probe(ring_[pos])] == pos + 1) out.push_back(ring_[pos]);
    if (++pos == capacity_) pos = 0;
  }
  return out;
}

double BoundedJournal::absorption_rate() const {
  const std::uint64_t expired = writebacks_ + superseded_expiries_;
  if (expired == 0) return 0.0;
  return static_cast<double>(superseded_expiries_) /
         static_cast<double>(expired);
}

}  // namespace mdsim
