// Client-side metadata location cache (paper sections 4.4 and 5.3.3).
//
// Clients of the subtree strategies are initially ignorant of the metadata
// partition. Every reply carries distribution info for the requested item
// and its prefixes; the client caches it and directs future requests based
// on the *deepest known prefix* of the target path. Stale knowledge (after
// load balancing moved a subtree) produces misdirected requests that the
// cluster forwards — the overhead measured in Figure 6.
//
// Storage is a flat open-addressed table rather than an unordered_map:
// resolve() probes once per ancestor of every issued request (the hottest
// client-side path at cohort scale), and learn() runs once per hint in
// every reply. A hint's own ino is the key (kInvalidInode marks an empty
// slot), so the table is a bare vector of hints with linear probing and
// no per-insert allocation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fstree/tree.h"
#include "mds/messages.h"

namespace mdsim {

class LocationCache {
 public:
  /// `capacity`: max cached hints. Client knowledge is allowed to be
  /// lossy; at capacity the table is simply reset (a pressure valve that
  /// never fires at the default size in practice).
  explicit LocationCache(std::size_t capacity = 65536)
      : capacity_(capacity) {}

  void learn(const LocationHint* hints, std::size_t n);
  template <typename Container>
  void learn(const Container& hints) {
    if (!hints.empty()) learn(hints.data(), hints.size());
  }
  void learn(std::initializer_list<LocationHint> hints) {
    learn(hints.begin(), hints.size());
  }

  /// Pick the MDS to contact for `target`: the hint on the deepest known
  /// prefix. Replicated-everywhere prefixes resolve to a uniformly random
  /// node. With no knowledge at all, a random node is chosen (the paper's
  /// "requests are directed randomly").
  MdsId resolve(const FsNode* target, Rng& rng, int num_mds) const;

  std::size_t size() const { return size_; }
  const LocationHint* hint_for(InodeId ino) const;

  // --- GIGA+ split bitmaps (possibly stale; corrected by redirects) --------

  /// Cached bitmap+home of a giga-fragmented directory.
  struct GigaEntry {
    std::uint64_t bitmap = 0;
    MdsId home = kInvalidMds;
  };

  /// Learn/refresh a directory's split bitmap (from a reply piggyback or
  /// a GigaRedirect). bitmap == 0 means the directory was unhashed: drop.
  void learn_giga(InodeId dir, std::uint64_t bitmap, MdsId home) {
    if (dir == kInvalidInode) return;
    if (bitmap == 0) {
      giga_.erase(dir);
    } else {
      giga_[dir] = GigaEntry{bitmap, home};
    }
  }
  const GigaEntry* giga_for(InodeId dir) const {
    if (giga_.empty()) return nullptr;
    auto it = giga_.find(dir);
    return it == giga_.end() ? nullptr : &it->second;
  }
  /// Fast guard for the routing hot path: true in every run where no
  /// directory ever fragmented (the common case).
  bool giga_empty() const { return giga_.empty(); }

  /// Drop everything (the cluster told us its authority layout was
  /// reconfigured; per-item invalidation is not worth modeling). Split
  /// bitmaps survive an epoch flush: they are per-directory maps keyed
  /// off a stable home, not authority-map state, and the redirect
  /// protocol corrects them if they did go stale.
  void clear() {
    slots_.clear();
    size_ = 0;
  }

 private:
  std::size_t slot_of(InodeId ino) const {
    // Fibonacci scramble so sequential inos spread across the table.
    return static_cast<std::size_t>(ino * 0x9e3779b97f4a7c15ULL) &
           (slots_.size() - 1);
  }
  void insert(const LocationHint& h);
  void grow(std::size_t new_slots);

  std::size_t capacity_;
  std::size_t size_ = 0;
  /// Power-of-two table; slot.ino == kInvalidInode means empty.
  std::vector<LocationHint> slots_;
  /// Giga-fragmented directories this client knows about. Tiny (only
  /// directories hot/big enough to fragment) and off the resolve() probe
  /// path, so a plain map is fine here.
  std::unordered_map<InodeId, GigaEntry> giga_;
};

}  // namespace mdsim
