// Per-MDS metadata cache.
//
// Implements the caching rules of paper section 4.1/4.5:
//  * Tree invariant — "each MDS caches prefix inodes for all items in the
//    cache, such that at any point the cached subset of the hierarchy
//    remains a tree structure. Only leaf items may be expired; directories
//    may not be removed until items contained within them are expired
//    first." Enforced with per-entry cached-child counts; entries with
//    cached children are not evictable.
//  * Prefetch placement — "prefetched metadata is inserted near the tail of
//    the cache's LRU list to avoid displacing known useful information."
//    Realized as a two-segment LRU: prefetched entries enter a probation
//    segment that is evicted before the main segment; a hit promotes to the
//    main MRU position.
//  * Popularity — every entry carries a decayed access counter (the traffic
//    control metric of section 4.4).
//
// Layout (see DESIGN.md "Cache core"): entries live in a chunked slab with
// stable addresses and are found through one open-addressed index probe
// keyed by InodeId. The two LRU segments are intrusive doubly-linked lists
// threaded through the slab slots (no per-touch allocation, no second hash
// probe to locate list nodes). The same index record also locates the
// entry's EntryAux sidecar — the per-inode MDS protocol state (coherence
// registry, traffic-control flags, dirfrag temperature, attribute deltas,
// fetch coalescing) that previously lived in six separate per-node hash
// maps — so one probe serves both the cache and the protocol layers. Aux
// records may outlive the cache entry (an authority keeps its replica
// registry even after evicting its own copy) and may exist before one (a
// fetch in flight coalesces waiters for a not-yet-resident inode).
//
// Each entry also heads an intrusive list of the entries anchored under
// it, and entries renamed away from their anchor sit on a stray list.
// Those lists are the one way to find what is cached under a directory
// (collect_below): its children for dirfrag drops, its whole subtree for
// directory-move sweeps and migration export, at the cost of the entries
// found plus the strays.
//
// The cache also keeps the accounting behind Figures 3 and 4 — which
// entries are prefix inodes and replica-vs-authority counts — as
// incrementally maintained counters, so metrics sampling is O(1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fstree/tree.h"

namespace mdsim {

enum class InsertKind : std::uint8_t {
  kDemand,    // fetched because a request needed this item itself
  kPrefix,    // cached to anchor traversal (ancestor directory)
  kPrefetch,  // speculatively loaded with its directory (embedded inodes)
};

struct CacheEntry;

/// Which in-flight fetch a coalescing waiter is parked on.
enum class FetchChannel : std::uint8_t { kDisk = 0, kReplica = 1 };

/// Per-inode MDS protocol state adjacent to the cache entry. Owned by the
/// cache (same index record as the entry); allocated lazily and freed as
/// soon as every field is back to its default (`unused()`). Fields are
/// grouped by the subsystem that writes them; the cache itself only
/// touches `replicated_everywhere` (cleared when the entry is evicted —
/// replication "everywhere" is a property of the resident copy).
struct EntryAux {
  using FetchWaiter = std::function<void(CacheEntry*)>;

  // Coherence (authority side): peers registered as holding a replica of
  // this inode. Small — bounded by cluster size — so a flat vector beats
  // a node-based set.
  std::vector<MdsId> replica_holders;

  // Distributed attribute updates (section 4.2). Authority side: peers
  // that announced absorbed-but-unflushed deltas. Replica side: number of
  // locally absorbed setattr deltas awaiting a flush.
  std::vector<MdsId> attr_dirty_holders;
  std::uint32_t attr_pending = 0;

  // Traffic control: this node believes the inode is replicated on every
  // MDS (cleared on eviction/invalidation of the local copy).
  bool replicated_everywhere = false;

  // Dynamic dirfrag: decayed count of namespace-mutating ops landing in
  // this directory. `has_dir_temp` gates it so an idle default counter
  // does not keep the record alive.
  bool has_dir_temp = false;
  DecayCounter dir_op_temp;

  // Fetch coalescing: continuations parked on an in-flight disk read or
  // replica request for this inode (the entry itself is usually absent).
  bool fetch_inflight[2] = {false, false};
  std::vector<FetchWaiter> fetch_waiters[2];

  bool holds(MdsId peer) const {
    for (MdsId h : replica_holders) {
      if (h == peer) return true;
    }
    return false;
  }

  /// True when every field is back to its default; the record is freed.
  bool unused() const {
    return replica_holders.empty() && attr_dirty_holders.empty() &&
           attr_pending == 0 && !replicated_everywhere && !has_dir_temp &&
           !fetch_inflight[0] && !fetch_inflight[1] &&
           fetch_waiters[0].empty() && fetch_waiters[1].empty();
  }
};

/// Slab slot index; entries link to each other by index, not pointer.
using CacheSlot = std::uint32_t;
constexpr CacheSlot kNullSlot = 0xffffffffu;

struct CacheEntry {
  FsNode* node = nullptr;
  bool authoritative = true;  // false => replica of another MDS's item
  bool prefix = true;         // true while only serving as a path prefix
  /// Directories only: all children are currently cached (set by a
  /// whole-directory fetch; cleared when any child is evicted). Lets a
  /// readdir be served without touching disk.
  bool complete = false;
  bool in_probation = false;
  /// Entry is on the cache's stray list: its node was renamed to another
  /// parent than `anchor_parent` while cached (note_moved).
  bool stray = false;
  std::uint32_t pins = 0;     // in-flight requests referencing this entry
  std::uint32_t cached_children = 0;
  /// This entry's links in its anchor parent's child list (next to the
  /// fields a walk of that list filters on).
  CacheSlot sib_prev = kNullSlot;
  CacheSlot sib_next = kNullSlot;
  /// Parent inode at insertion time. Child accounting uses this, not the
  /// live tree: a rename may reparent the node while it is cached, and
  /// the increment/decrement pair must hit the same entry.
  InodeId anchor_parent = kInvalidInode;
  std::uint64_t version = 0;  // inode version this copy reflects
  DecayCounter popularity;

  /// Protocol sidecar for this inode, or nullptr. Borrowed from the
  /// cache's aux slab; may outlive the entry (kept by the cache while any
  /// field is in use).
  EntryAux* aux = nullptr;

  // Intrusive LRU links + own slot (managed by MetadataCache).
  CacheSlot lru_prev = kNullSlot;
  CacheSlot lru_next = kNullSlot;
  CacheSlot self = kNullSlot;
  /// Head of the intrusive list of the entries anchored under this one
  /// (their anchor_parent is this inode; cached_children long).
  CacheSlot child_head = kNullSlot;

  bool evictable() const { return pins == 0 && cached_children == 0; }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  /// unpin() calls on an entry with no pins — a request state-machine bug
  /// (would silently corrupt evictable() if ignored).
  std::uint64_t pin_underflows = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class MetadataCache {
 public:
  using EvictCallback = std::function<void(const CacheEntry&)>;
  using FetchWaiter = EntryAux::FetchWaiter;

  /// `capacity` in items. If `enforce_tree` is false, the parent-chain
  /// invariant is skipped (Lazy Hybrid does not keep prefixes at all).
  MetadataCache(std::size_t capacity, bool enforce_tree = true);

  /// Fires whenever an entry is evicted or erased (replica-drop
  /// notification hook for the coherence layer). Invoked after the entry
  /// has been unlinked from the index and LRU — peek() of the victim
  /// returns null, and the callback may insert/erase other entries.
  void set_evict_callback(EvictCallback cb) { on_evict_ = std::move(cb); }

  /// Look up an inode; on hit, promotes the entry and bumps popularity.
  /// Misses/hits are tallied unless `count_stats` is false (internal
  /// bookkeeping peeks should not skew figure 4).
  CacheEntry* lookup(InodeId ino, SimTime now, bool count_stats = true);

  /// Peek without promotion or stats.
  CacheEntry* peek(InodeId ino);
  const CacheEntry* peek(InodeId ino) const;

  /// Insert (or refresh) an entry. The parent must already be cached when
  /// the tree invariant is on (except for the root). Inserting may evict
  /// other entries; the new entry itself is never evicted by its own
  /// insertion. Returns the entry.
  CacheEntry* insert(FsNode* node, InsertKind kind, bool authoritative,
                     SimTime now);

  /// Remove one entry immediately (e.g. after migration export or an
  /// unlink). Entries with cached children or active pins cannot be
  /// erased; returns false in that case (they drain via normal eviction).
  bool erase(InodeId ino);

  void pin(CacheEntry* e) { ++e->pins; }
  void unpin(CacheEntry* e);

  /// The entry was the direct target of a request (not a traversal
  /// prefix): clears its prefix status for the figure-3 accounting.
  void mark_demand_access(CacheEntry* e) { mark_demand(*e); }

  /// Evict down to capacity (called automatically by insert).
  void enforce_capacity();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t c) {
    capacity_ = c;
    enforce_capacity();
  }

  const CacheStats& stats() const { return stats_; }

  /// Number of cached *directory* inodes held for traversal only —
  /// "prefix inodes" in the paper's sense (figure 3). Prefetched files
  /// and demand-accessed directories do not count.
  std::size_t prefix_count() const { return prefix_count_; }
  std::size_t replica_count() const { return replica_count_; }
  /// Fraction of cache occupied by prefix inodes (figure 3's y-axis): a
  /// directory counts while it anchors cached descendants (path traversal
  /// runs through it) or was brought in purely as a traversal prefix.
  /// O(1) — maintained incrementally (anchored_prefix_dirs_).
  double prefix_fraction() const {
    return size_ > 0 ? static_cast<double>(anchored_prefix_dirs_) /
                           static_cast<double>(size_)
                     : 0.0;
  }

  /// `ino` was just renamed in the tree; every rename of a node this
  /// cache may hold must be reported. If it is resident under an anchor
  /// other than its new live parent, it joins the stray list so
  /// collect_below still finds it under that parent; renamed back under
  /// its anchor, it leaves. No-op without the tree invariant.
  void note_moved(InodeId ino);
  std::size_t stray_count() const { return strays_.size(); }

  /// How far below a directory collect_below reaches.
  enum class Reach : std::uint8_t {
    kChildren,  // entries whose live parent is the directory
    kSubtree,   // everything under it, tombstones below their former dir
  };
  /// Append to `out` each resident entry below `dir` in the live tree for
  /// which `keep(entry)` holds, then leave all of `out` in scan order (the
  /// order for_each visits) with repeats dropped, so one list can gather
  /// several roots and an order-sensitive step downstream, such as an
  /// unstable sort, sees what a whole-cache scan would have produced. The
  /// walk follows the anchor lists from `dir`'s entry and checks every
  /// stray; `dir` itself need not be resident. Returns the entries
  /// examined: the list members reached plus the stray count. Needs the
  /// tree invariant.
  template <typename Keep>
  std::size_t collect_below(const FsNode* dir, Reach reach,
                            std::vector<CacheEntry*>& out, Keep&& keep) {
    const std::size_t visits = reach_below(dir, reach);
    for (CacheEntry* e : reached_) {
      if (keep(static_cast<const CacheEntry&>(*e))) out.push_back(e);
    }
    sort_in_scan_order(out);
    return visits;
  }
  std::size_t collect_below(const FsNode* dir, Reach reach,
                            std::vector<CacheEntry*>& out) {
    return collect_below(dir, reach, out,
                         [](const CacheEntry&) { return true; });
  }

  /// Iterate all entries (balancer and rejoin scans, test oracles). The
  /// callback must not insert or erase entries (collect first, then
  /// mutate).
  void for_each(const std::function<void(CacheEntry&)>& fn);

  // ---- protocol sidecar (EntryAux) ---------------------------------------
  /// Sidecar for `ino`, or nullptr if none exists.
  EntryAux* aux_peek(InodeId ino);
  const EntryAux* aux_peek(InodeId ino) const;
  /// Sidecar for `ino`, created empty if absent. Callers must either set
  /// a field or call aux_gc afterwards (empty records are reclaimed).
  EntryAux& aux_ensure(InodeId ino);
  /// Free the sidecar if every field is back to its default.
  void aux_gc(InodeId ino);
  /// Visit every inode that currently has a sidecar. Snapshots the key
  /// set first, so the callback may mutate/gc aux records freely.
  void for_each_aux(const std::function<void(InodeId, EntryAux&)>& fn);
  std::size_t aux_count() const { return aux_count_; }

  // ---- fetch coalescing ---------------------------------------------------
  /// Park a continuation on the in-flight fetch for `ino`. Returns true
  /// if this is the first waiter — the caller must start the fetch.
  bool add_fetch_waiter(InodeId ino, FetchChannel ch, FetchWaiter w);
  /// Complete the fetch: clears the in-flight flag and returns the parked
  /// continuations (empty if none were registered / already cleared).
  std::vector<FetchWaiter> take_fetch_waiters(InodeId ino, FetchChannel ch);
  bool fetch_inflight(InodeId ino, FetchChannel ch) const;
  /// Number of distinct inodes with a fetch in flight on `ch`.
  std::size_t inflight_fetches(FetchChannel ch) const {
    return inflight_count_[static_cast<int>(ch)];
  }
  /// Drop all parked continuations and in-flight markers (cold rejoin).
  void clear_fetch_waiters();

  /// Verify the tree invariant and internal accounting (counters,
  /// intrusive-list consistency, index integrity, aux linkage); returns
  /// an empty string when healthy (tests).
  std::string check_invariants() const;

 private:
  // Chunked slab: stable addresses, O(1) alloc/free via a free list.
  template <typename T>
  class Slab {
   public:
    static constexpr std::size_t kChunkBits = 8;
    static constexpr std::size_t kChunkSize = 1u << kChunkBits;

    T& operator[](CacheSlot i) {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }
    const T& operator[](CacheSlot i) const {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }

    CacheSlot alloc() {
      if (!free_.empty()) {
        const CacheSlot s = free_.back();
        free_.pop_back();
        return s;
      }
      const std::size_t next = allocated_++;
      if ((next >> kChunkBits) == chunks_.size()) {
        chunks_.emplace_back(new T[kChunkSize]);
      }
      return static_cast<CacheSlot>(next);
    }

    void free(CacheSlot s) {
      (*this)[s] = T{};  // reset to defaults for the next tenant
      free_.push_back(s);
    }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<CacheSlot> free_;
    std::size_t allocated_ = 0;
  };

  // Open-addressed index record: one per inode holding an entry, a
  // sidecar, or both. key == kInvalidInode marks an empty slot; deletion
  // backward-shifts, so there are no tombstones.
  struct IndexSlot {
    InodeId key = kInvalidInode;
    CacheSlot entry = kNullSlot;
    CacheSlot aux = kNullSlot;
  };

  // Intrusive LRU segment; head = MRU, tail = LRU.
  struct LruList {
    CacheSlot head = kNullSlot;
    CacheSlot tail = kNullSlot;
    std::size_t size = 0;
  };

  static std::size_t hash_ino(InodeId ino) {
    return static_cast<std::size_t>(ino * 0x9E3779B97F4A7C15ull);
  }

  // Index primitives (linear probing).
  std::size_t index_mask() const { return index_.size() - 1; }
  /// Slot position of `ino`, or the empty position where it would go.
  std::size_t index_probe(InodeId ino) const;
  IndexSlot* index_find(InodeId ino);
  const IndexSlot* index_find(InodeId ino) const;
  /// Find-or-create the record for `ino` (grows the table as needed).
  IndexSlot& index_ensure(InodeId ino);
  /// Remove the record at table position `pos` (backward-shift).
  void index_erase_at(std::size_t pos);
  /// Drop the record if it holds neither an entry nor a sidecar.
  void index_gc(InodeId ino);
  void index_grow();

  // LRU primitives.
  LruList& list_of(const CacheEntry& e) {
    return e.in_probation ? probation_ : main_;
  }
  void list_push_front(LruList& l, CacheEntry& e);
  void list_unlink(LruList& l, CacheEntry& e);

  void promote(CacheEntry& e);
  void mark_demand(CacheEntry& e);
  /// True when the entry counts toward anchored_prefix_dirs_.
  static bool is_anchor_dir(const CacheEntry& e) {
    return e.node->is_dir() && (e.prefix || e.cached_children > 0);
  }
  /// Count `e` among its anchor parent's cached children and link it into
  /// the parent's child list (the parent must be resident).
  void anchor_link(CacheEntry& e);
  /// Reverse of anchor_link; tolerates a parent already torn down.
  void anchor_unlink(CacheEntry& e);
  void stray_remove(CacheEntry& e);
  /// Fill reached_ with the resident entries below `dir` (collect_below's
  /// walk, unfiltered and unordered); returns the entries examined.
  std::size_t reach_below(const FsNode* dir, Reach reach);
  /// Reorder resident `entries` into for_each order, dropping repeats.
  void sort_in_scan_order(std::vector<CacheEntry*>& entries) const;
  /// Evict the tail-most evictable entry of `l`; false if none qualifies.
  bool evict_one_from(LruList& l);
  void remove_entry(CacheEntry& e, bool evicted);

  std::size_t capacity_;
  bool enforce_tree_;
  EvictCallback on_evict_;

  Slab<CacheEntry> entries_;
  Slab<EntryAux> aux_slab_;
  std::vector<IndexSlot> index_;
  std::size_t index_used_ = 0;

  LruList main_;
  LruList probation_;
  /// Slots of the entries with `stray` set; few (renames are rare), so
  /// removal is a linear search.
  std::vector<CacheSlot> strays_;
  /// reach_below's result, kept to reuse its capacity.
  std::vector<CacheEntry*> reached_;

  CacheStats stats_;
  std::size_t size_ = 0;
  std::size_t aux_count_ = 0;
  std::size_t prefix_count_ = 0;
  std::size_t replica_count_ = 0;
  /// Dir entries with (prefix || cached_children > 0): the numerator of
  /// prefix_fraction(), maintained on every transition.
  std::size_t anchored_prefix_dirs_ = 0;
  std::size_t inflight_count_[2] = {0, 0};
  bool enforcing_ = false;  // reentrancy guard (evict callbacks may insert)
};

}  // namespace mdsim
