// Dynamic directory fragmentation (paper section 4.3), grown into
// GIGA+-style incremental partitioning.
//
// "If a single directory becomes extraordinarily large or busy ... an
// individual directory's contents can be hashed across the cluster, such
// that the authority for a given directory entry is defined by a hash of
// the file name and the directory inode number. ... we propose that the
// decision to hash (or unhash) a directory be dynamic."
//
// The paper hashes a whole directory in one step; that re-routes every
// dentry at once (a split storm). Here each fragmented directory carries
// a per-partition split bitmap instead: partition `p` at depth `d`
// splits independently into `p` and `p + 2^d` when its own dentry count
// or temperature crosses the threshold, and merges reverse one split at
// a time. Bit `i` of the bitmap is set iff partition `i` exists; bit 0
// is always set. A dentry maps to the partition found by taking the low
// kGigaMaxDepth bits of its name hash and clearing the most-significant
// set bit until it lands on an existing partition. Partitions map to
// MDS nodes round-robin from the directory's home (its subtree
// authority at fragment time), so the initial fragmentation moves
// nothing and each split moves only one partition's split-away half.
//
// The registry is cluster-shared knowledge (every MDS learns of fragment
// events via DirFragNotify messages; the shared object models the
// converged state, which is how the paper's prototype treats the
// partition itself). Clients hold possibly-stale copies of the bitmaps
// and learn corrections from GigaRedirect replies.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fstree/tree.h"
#include "mds/params.h"

namespace mdsim {

/// Partition index for a name hash under a split bitmap: take the low
/// kGigaMaxDepth bits, then clear the most-significant set bit until the
/// candidate partition exists. Bit 0 is always set, so this terminates.
inline std::uint32_t giga_partition(std::uint64_t hash, std::uint64_t bitmap) {
  std::uint32_t i =
      static_cast<std::uint32_t>(hash & ((1ULL << kGigaMaxDepth) - 1));
  while (i != 0 && ((bitmap >> i) & 1) == 0) {
    i ^= 1u << (std::bit_width(i) - 1);
  }
  return i;
}

/// Current radix depth of partition `p`: its birth depth (the depth of
/// the split that created it) plus one per own split it has performed
/// since (child `p + 2^d` present in the bitmap).
inline int giga_depth_of(std::uint64_t bitmap, std::uint32_t p) {
  int d = p == 0 ? 0 : static_cast<int>(std::bit_width(p));
  while (d < kGigaMaxDepth && ((bitmap >> (p + (1u << d))) & 1) != 0) ++d;
  return d;
}

/// Round-robin partition placement from the directory's home node.
inline MdsId giga_node(MdsId home, std::uint32_t p, int num_mds) {
  return static_cast<MdsId>((home + static_cast<MdsId>(p)) % num_mds);
}

class DirFragRegistry {
 public:
  /// Per-directory fragmentation state. `giga` entries split
  /// incrementally; legacy entries (giga_enabled=false) hash every
  /// dentry over all nodes in one step, exactly as before this change.
  struct GigaDir {
    std::uint64_t bitmap = 1;  // bit i set <=> partition i exists
    MdsId home = 0;            // subtree authority at fragment time
    bool giga = true;
    bool by_size = false;  // trigger that fragmented it (vs by heat)
    SimTime half_life = 5 * kSecond;
    std::vector<std::uint64_t> counts;  // exact dentries per partition
    std::vector<DecayCounter> temps;    // per-partition op temperature
  };

  explicit DirFragRegistry(int num_mds)
      : num_mds_(num_mds), alive_(static_cast<std::size_t>(num_mds), 1) {}

  bool is_fragmented(InodeId dir) const {
    // Fragmentation is rare; the registry is empty in most runs and this
    // is queried on every authority resolution.
    return !dirs_.empty() && dirs_.count(dir) != 0;
  }

  /// The directory's entry, or nullptr when it is not fragmented.
  const GigaDir* find(InodeId dir) const {
    if (dirs_.empty()) return nullptr;
    auto it = dirs_.find(dir);
    return it == dirs_.end() ? nullptr : &it->second;
  }

  // --- transitions (each bumps the generation) -----------------------------

  /// Fragment `dir`. Giga mode starts with bitmap=1 (everything stays at
  /// `home`, zero dentries move); legacy mode re-routes all `child_count`
  /// dentries at once. `seed_temp` carries the directory's op temperature
  /// into partition 0 so a just-fragmented hot directory doesn't read as
  /// stone-cold on the next sweep.
  void fragment(InodeId dir, MdsId home, bool giga, bool by_size,
                std::uint64_t child_count, double seed_temp, SimTime now,
                SimTime half_life);

  /// Split partition `p` into `p` and `p + 2^depth(p)`. The caller
  /// recounts the partition's current dentries and passes the exact
  /// post-split counts; only `child_count` entries move.
  /// Returns the child partition index.
  std::uint32_t split(InodeId dir, std::uint32_t p,
                      std::uint64_t parent_count, std::uint64_t child_count,
                      SimTime now);

  /// Reverse one split: fold leaf child `c` back into its parent `q`.
  void merge_pair(InodeId dir, std::uint32_t q, std::uint32_t c, SimTime now);

  /// Drop the entry entirely (directory unhashed). For legacy entries the
  /// caller passes the dentry count being re-routed home; giga entries
  /// compute it from their counts.
  void unfragment(InodeId dir, std::uint64_t moved_hint = 0);

  // --- bookkeeping kept exact by the authority applying each op ------------

  void note_create(InodeId dir, const std::string& name);
  void note_remove(InodeId dir, const std::string& name);
  /// Heat the partition a namespace op landed in.
  void note_heat(InodeId dir, const std::string& name, SimTime now);

  // --- routing -------------------------------------------------------------

  /// Authority for one dentry of a fragmented directory. Giga entries
  /// map hash -> partition -> round-robin node from home; legacy entries
  /// hash over all nodes. Either way the result is probed past nodes
  /// currently known dead (crashed or fenced), consistent with the
  /// epoch/takeover rules, instead of routing dentries into a black hole.
  MdsId dentry_authority(InodeId dir, const std::string& name) const {
    return dentry_authority(find(dir), giga_name_hash(dir, name));
  }
  /// The same from the dentry's name hash (FsNode::dentry_hash()) and its
  /// directory's entry as find() returned it, so a caller routing many
  /// dentries of one directory resolves the entry once.
  MdsId dentry_authority(const GigaDir* g, std::uint64_t name_hash) const;

  /// Liveness as converged cluster knowledge: failure detection and
  /// heartbeat-observed recovery feed this mask so dentry routing skips
  /// dead nodes. With everyone alive the probe is a dead branch and the
  /// pre-GIGA+ hash placement is unchanged bit for bit.
  void set_node_alive(MdsId node, bool alive);
  bool node_alive(MdsId node) const {
    return alive_[static_cast<std::size_t>(node)] != 0;
  }

  // --- accounting ----------------------------------------------------------

  /// This node's share of the directory's dentries (for shard-sized
  /// whole-directory readdir fetch costs). Legacy entries are modeled as
  /// an even 1/num_mds split, as before.
  double shard_fraction(InodeId dir, MdsId node) const;

  /// Sum of partition temperatures (giga) for merge decisions.
  double total_temp(InodeId dir, SimTime now) const;

  // --- resync (generation on heartbeats heals lost notifies) ---------------

  std::uint64_t generation() const { return gen_; }
  /// Directories whose fragmentation state changed after `gen`. A peer
  /// whose heartbeat-carried generation lags re-runs drop_foreign_dentries
  /// over exactly these.
  std::vector<InodeId> changes_since(std::uint64_t gen) const;
  /// True if `dir` was ever fragmented (used to tell stale clients to
  /// drop a bitmap for a since-unhashed directory).
  bool changed_ever(InodeId dir) const {
    return !last_change_.empty() && last_change_.count(dir) != 0;
  }

  std::size_t fragmented_count() const { return dirs_.size(); }

  // Transition counters. fragment/merge count whole-directory
  // transitions (hash/unhash) as before; split/pair-merge count the
  // incremental ones. moved-entry gauges feed the split-storm ablation:
  // an all-at-once transition books the whole directory, a giga split
  // books one partition's split-away half.
  std::uint64_t fragment_events = 0;
  std::uint64_t merge_events = 0;
  std::uint64_t split_events = 0;
  std::uint64_t pair_merge_events = 0;
  std::uint64_t max_event_moved = 0;
  std::uint64_t total_event_moved = 0;

 private:
  void bump(InodeId dir) { last_change_[dir] = ++gen_; }
  void record_moved(std::uint64_t moved) {
    total_event_moved += moved;
    if (moved > max_event_moved) max_event_moved = moved;
  }
  MdsId probe_alive(MdsId a) const {
    if (all_alive_ || alive_[static_cast<std::size_t>(a)] != 0) return a;
    for (int k = 1; k < num_mds_; ++k) {
      const MdsId c = static_cast<MdsId>((a + k) % num_mds_);
      if (alive_[static_cast<std::size_t>(c)] != 0) return c;
    }
    return a;  // nobody alive: keep the hash placement
  }

  int num_mds_;
  bool all_alive_ = true;
  std::vector<std::uint8_t> alive_;
  std::uint64_t gen_ = 0;
  std::unordered_map<InodeId, GigaDir> dirs_;
  // dir -> generation of its last transition (kept after unfragment so
  // resync and stale-client correction still cover departed entries).
  std::unordered_map<InodeId, std::uint64_t> last_change_;
};

}  // namespace mdsim
