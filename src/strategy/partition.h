// Metadata partitioning strategies (paper sections 3.1 and 4.1).
//
// A Partitioner answers the single question every MDS asks on every
// request: which node is *authoritative* for this item? The five
// strategies the paper evaluates differ in how that answer is derived and
// in a set of behavioural traits (directory-granularity storage, path
// traversal, client location knowledge, adaptivity) captured by
// StrategyTraits.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "fstree/tree.h"

namespace mdsim {

enum class StrategyKind : std::uint8_t {
  kDynamicSubtree,
  kStaticSubtree,
  kDirHash,
  kFileHash,
  kLazyHybrid,
};

constexpr const char* strategy_name(StrategyKind k) {
  switch (k) {
    case StrategyKind::kDynamicSubtree: return "DynamicSubtree";
    case StrategyKind::kStaticSubtree: return "StaticSubtree";
    case StrategyKind::kDirHash: return "DirHash";
    case StrategyKind::kFileHash: return "FileHash";
    case StrategyKind::kLazyHybrid: return "LazyHybrid";
  }
  return "?";
}

/// Behavioural differences between strategies (paper sections 3 and 5.1:
/// "the hashing and static subtree servers implement subsets of this
/// functionality to accommodate the different partitioning mechanisms").
struct StrategyTraits {
  /// Directory contents (with embedded inodes) are stored and fetched as
  /// one object, enabling whole-directory prefetch (subtree + dirhash).
  bool whole_directory_io = true;
  /// Serving a request requires traversing and caching prefix (ancestor)
  /// inodes (everything except Lazy Hybrid).
  bool path_traversal = true;
  /// Clients can compute metadata locations themselves (hash strategies);
  /// otherwise they learn locations from replies (subtree strategies,
  /// enabling traffic control through client ignorance).
  bool client_computes_location = false;
  /// The partition adapts at runtime (dynamic subtree only).
  bool load_balancing = false;
  /// Popular metadata is replicated and clients redirected (dynamic only).
  bool traffic_control = false;
  /// Directory-granularity delegation may be overridden per-dentry by
  /// dynamic directory fragmentation (dynamic subtree only).
  bool dynamic_dirfrag = false;
};

StrategyTraits traits_for(StrategyKind kind);

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  /// Authoritative MDS for this node's metadata (its dentry + embedded
  /// inode at the primary link).
  virtual MdsId authority_of(const FsNode* node) const = 0;
  /// Incremental form for root-down path walks: authority of `node` given
  /// its parent's already-computed authority. Strategies whose authority
  /// derives from the parent chain (subtree partitions) answer with one
  /// table load instead of re-walking the chain; the default recomputes.
  virtual MdsId authority_step(const FsNode* node, MdsId parent_auth) const {
    (void)parent_auth;
    return authority_of(node);
  }
  virtual StrategyKind kind() const = 0;
};

/// Subtree partition: an explicit map of delegation points. Authority of a
/// node = delegation point nearest to it on its parent chain. The root is
/// always a delegation point. (Paper section 4.1: "delegations may be
/// nested".)
///
/// The map carries a monotonically increasing *epoch* (Ceph MDSMap-style).
/// Normal migrations record their delegations at the current epoch; a
/// failure-driven reconfiguration (takeover, heal) bumps the epoch first,
/// so each delegation point keeps a short history of (epoch, holder)
/// records. A node whose view is frozen at an older epoch (a fenced
/// minority-side MDS) resolves authority *as of its view* via
/// authority_of_at(), which is what makes split-brain observable — and
/// therefore testable — in the simulator even though the map object itself
/// is shared. In healthy runs the epoch stays at 1 and every record vector
/// has length 1.
class SubtreePartition final : public Partitioner {
 public:
  SubtreePartition(StrategyKind kind, int num_mds);

  MdsId authority_of(const FsNode* node) const override;
  MdsId authority_step(const FsNode* node, MdsId parent_auth) const override {
    const MdsId holder = current(node->ino());
    return holder >= 0 ? holder : parent_auth;
  }
  StrategyKind kind() const override { return kind_; }

  /// Authority as seen by a node whose map view is frozen at `epoch`:
  /// records newer than the view are invisible.
  MdsId authority_of_at(const FsNode* node, std::uint64_t epoch) const;

  /// Current map epoch (starts at 1) and the failure-driven bump.
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t bump_epoch() { return ++epoch_; }

  /// Install/replace a delegation point (recorded at the current epoch).
  /// Returns the previous holder of the subtree (its effective authority
  /// before this call).
  MdsId delegate(const FsNode* subtree_root, MdsId to);
  bool is_delegation_point(const FsNode* node) const;
  MdsId delegation_at(InodeId ino) const { return current(ino); }

  /// All delegation points currently assigned to `mds`, with their nodes.
  std::vector<const FsNode*> delegations_of(MdsId mds) const;
  std::size_t delegation_count() const;

  /// Every root that has ever been a delegation point (any epoch) — the
  /// candidate set for single-authority invariant sweeps.
  std::vector<const FsNode*> known_roots() const;

  /// Build the paper's initial partition: "hashing directories near the
  /// root of the hierarchy" — every directory at `depth` (children of the
  /// root's children by default) is delegated by hash.
  void initialize_by_hashing_top_dirs(const FsTree& tree, int depth = 2);

  int num_mds() const { return num_mds_; }

 private:
  /// One holder assignment, made at `epoch`.
  struct Record {
    std::uint64_t epoch = 1;
    MdsId mds = kInvalidMds;
  };

  MdsId current(InodeId ino) const {
    return ino < current_.size() ? current_[ino] : kInvalidMds;
  }
  void set_current(InodeId ino, MdsId mds) {
    if (ino >= current_.size()) current_.resize(ino + 1, kInvalidMds);
    current_[ino] = mds;
  }

  StrategyKind kind_;
  int num_mds_;
  std::uint64_t epoch_ = 1;
  /// Records per delegation point, epoch-ascending; the back() is current.
  std::unordered_map<InodeId, std::vector<Record>> delegation_;
  std::unordered_map<InodeId, const FsNode*> nodes_;
  /// Dense mirror of each point's back() record, indexed by ino: the
  /// authority_of parent-chain walk runs ~1 M times per sharded run and
  /// must not hash-probe per ancestor. kInvalidMds where delegation_ has
  /// no entry.
  std::vector<MdsId> current_;
};

/// Hash partition: authority derived from a path hash. In kDirHash mode a
/// dentry lives with its containing directory (directory contents grouped
/// on one node); in kFileHash/kLazyHybrid mode every file hashes
/// independently by its own full path.
class HashPartition final : public Partitioner {
 public:
  HashPartition(StrategyKind kind, int num_mds);

  MdsId authority_of(const FsNode* node) const override;
  StrategyKind kind() const override { return kind_; }

  int num_mds() const { return num_mds_; }

 private:
  StrategyKind kind_;
  int num_mds_;
};

std::unique_ptr<Partitioner> make_partitioner(StrategyKind kind, int num_mds,
                                              const FsTree& tree);

}  // namespace mdsim
