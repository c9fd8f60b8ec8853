// Ground-truth file system hierarchy shared by the whole simulation.
//
// Every MDS node *caches* subsets of this tree (with its own per-item cache
// state); clients pick operation targets from it. Mutating operations are
// applied here once the owning MDS commits them, so the tree always reflects
// the current logical state of the file system.
//
// Hard links: each inode has one *primary* dentry (where the inode is
// embedded, section 4.5). Additional links are remote dentries that name the
// inode but carry no embedded copy; they resolve through the anchor table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "fstree/inode.h"

namespace mdsim {

class FsTree;
class FsNode;

/// FNV-1a over the name, seeded by the directory inode number, with an
/// avalanche finalizer: the name hash that places a dentry of a
/// fragmented directory (GIGA+, mds/dirfrag.h). Shared verbatim by MDS
/// and client so routing parity holds by construction.
inline std::uint64_t giga_name_hash(InodeId dir, const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ dir;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return h;
}

/// A directory's children in name order: one owning container, split into
/// blocks of at most kBlock child pointers so an ordered insert or erase
/// shifts one block, not the whole directory: O(log n + kBlock). Lookup is
/// a binary search over block boundaries, then one inside a block;
/// iteration walks contiguous pointer arrays. Occupancy bound: no block is
/// empty and no two adjacent blocks fit in one, so a directory that shrinks
/// never decays into near-empty blocks. Node addresses never move: caches,
/// requests and the graveyard hold FsNode* while only the owning pointers
/// move between blocks. Mutations go through FsTree.
class ChildList {
 public:
  static constexpr std::size_t kBlock = 256;
  using Block = std::vector<std::unique_ptr<FsNode>>;

  /// Forward iterator yielding FsNode* in name order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FsNode*;
    using difference_type = std::ptrdiff_t;
    using pointer = FsNode* const*;
    using reference = FsNode*;

    const_iterator() = default;
    FsNode* operator*() const { return cur_->get(); }
    const_iterator& operator++() {
      if (++cur_ == blk_end_) {
        ++blk_;
        set_block();
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const { return cur_ == o.cur_; }
    bool operator!=(const const_iterator& o) const { return cur_ != o.cur_; }

   private:
    friend class ChildList;
    const_iterator(const Block* blk, const Block* last)
        : blk_(blk), last_(last) {
      set_block();
    }
    void set_block() {
      if (blk_ == last_) {
        cur_ = blk_end_ = nullptr;
      } else {
        cur_ = blk_->data();
        blk_end_ = cur_ + blk_->size();
      }
    }
    const Block* blk_ = nullptr;
    const Block* last_ = nullptr;
    const std::unique_ptr<FsNode>* cur_ = nullptr;
    const std::unique_ptr<FsNode>* blk_end_ = nullptr;
  };

  const_iterator begin() const {
    return {blocks_.data(), blocks_.data() + blocks_.size()};
  }
  const_iterator end() const {
    const Block* last = blocks_.data() + blocks_.size();
    return {last, last};
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  FsNode* front() const { return blocks_.front().front().get(); }
  FsNode* find(const std::string& name) const;

  /// Blocks in order; exposed so tests can check the occupancy bound
  /// (no empty block, and no two adjacent blocks fit in one).
  const std::vector<Block>& blocks() const { return blocks_; }

 private:
  friend class FsTree;
  /// Where `name` is, or would be inserted: block index and position in
  /// that block.
  struct Slot {
    std::size_t block = 0;
    std::size_t pos = 0;
    bool found = false;
  };
  Slot locate(const std::string& name) const;
  /// `slot` must come from locate() of the node's name with no mutation
  /// in between, and must not be `found`.
  void insert(const Slot& slot, std::unique_ptr<FsNode> node);
  std::unique_ptr<FsNode> erase(const FsNode* node);
  /// Fold block i+1 into block i if both fit in one block.
  void merge_if_fits(std::size_t i);

  std::vector<Block> blocks_;
  std::size_t size_ = 0;
};

/// A node is a (dentry, embedded inode) pair in the hierarchy.
class FsNode {
 public:
  const std::string& name() const { return name_; }
  FsNode* parent() const { return parent_; }
  const Inode& inode() const { return inode_; }
  Inode& mutable_inode() { return inode_; }
  bool is_dir() const { return inode_.is_dir(); }
  InodeId ino() const { return inode_.ino; }
  std::uint32_t depth() const { return depth_; }

  /// Deterministic hash of the full path, maintained incrementally
  /// (recomputed for a subtree on rename). Drives the hashed partitioning
  /// strategies, where metadata location follows the path name.
  std::uint64_t path_hash() const { return path_hash_; }

  /// giga_name_hash(parent()->ino(), name()), computed once when the
  /// dentry is created or renamed (0 for the root). Descendants of a
  /// renamed directory keep their parent, so only the renamed node's
  /// hash changes; a tombstone keeps the hash of its last dentry.
  std::uint64_t dentry_hash() const { return dentry_hash_; }

  /// Children, ordered by name (directory order on "disk"). The list owns
  /// them; range-for yields FsNode*.
  const ChildList& children_list() const { return children_; }
  std::size_t child_count() const { return children_.size(); }
  FsNode* child(const std::string& name) const { return children_.find(name); }

  /// Number of nodes in the subtree rooted here (including this node);
  /// maintained incrementally.
  std::uint64_t subtree_size() const { return subtree_size_; }

  /// Full path from the root, e.g. "/home/u3/src/a.c".
  std::string path() const;

  /// Ancestors from the root down to (and including) this node.
  std::vector<FsNode*> ancestry();

  /// Same chain written into `out` (cleared first), reusing its capacity —
  /// the hot paths call this hundreds of thousands of times per run and
  /// must not pay a heap allocation per call.
  void ancestry_into(std::vector<FsNode*>& out);

 private:
  friend class FsTree;
  std::string name_;
  FsNode* parent_ = nullptr;
  Inode inode_;
  std::uint32_t depth_ = 0;
  std::uint64_t path_hash_ = 0;
  std::uint64_t dentry_hash_ = 0;
  ChildList children_;
  std::uint64_t subtree_size_ = 1;
  // Positions in FsTree's sampling vectors (SIZE_MAX = not present).
  std::size_t file_index_ = SIZE_MAX;
  std::size_t dir_index_ = SIZE_MAX;
};

/// Path hash a child of `dir` named `name` *would* have (used by clients
/// of hashed strategies to locate the authority for a create).
std::uint64_t child_path_hash(const FsNode* dir, const std::string& name);

/// Extra hard link: a dentry in `dir` with `name` referring to `target`'s
/// inode (which stays embedded at its primary location).
struct RemoteLink {
  FsNode* dir;
  std::string name;
  InodeId target;
};

class FsTree {
 public:
  FsTree();
  FsTree(const FsTree&) = delete;
  FsTree& operator=(const FsTree&) = delete;

  FsNode* root() const { return root_.get(); }

  // --- Mutations (mirror the MDS update operations) ---------------------
  /// Returns nullptr if the name exists already.
  FsNode* create_file(FsNode* dir, const std::string& name,
                      const Perms& perms = {}, SimTime now = 0);
  FsNode* mkdir(FsNode* dir, const std::string& name, const Perms& perms = {},
                SimTime now = 0);
  /// Removes a file, or an empty directory. Returns false on violation
  /// (non-empty dir, root, or node has remote links — unlink those first).
  /// The node object itself is tombstoned, not freed: in-flight requests
  /// and cache entries elsewhere in the cluster may still reference it
  /// (the paper's "retain inodes that are deleted while still open").
  bool remove(FsNode* node);
  /// Moves `node` under `new_parent` with `new_name`. Fails if the target
  /// name exists or `new_parent` is inside `node`'s subtree.
  bool rename(FsNode* node, FsNode* new_parent, const std::string& new_name);
  void chmod(FsNode* node, const Perms& perms, SimTime now = 0);
  void touch(FsNode* node, std::uint64_t new_size, SimTime now = 0);

  /// Create an additional hard link (files only). Returns false if the
  /// name exists.
  bool link(FsNode* target, FsNode* dir, const std::string& name);
  const std::vector<RemoteLink>& remote_links() const { return links_; }

  // --- Lookup ------------------------------------------------------------
  /// Resolve "/a/b/c"; leading and repeated slashes are ignored.
  FsNode* lookup(const std::string& path) const;
  /// O(1) dense lookup: inode numbers are handed out sequentially, so the
  /// index is a flat vector (tombstoned inos read back as nullptr). This
  /// is the single hottest map in the simulator (~1 lookup per traversal
  /// step per layer).
  FsNode* by_ino(InodeId ino) const {
    return ino < by_ino_.size() ? by_ino_[ino] : nullptr;
  }
  /// True while `node` is still linked into the hierarchy (not tombstoned).
  bool alive(const FsNode* node) const {
    return by_ino(node->ino()) == node;
  }

  /// True if `ancestor` is on `node`'s parent chain (or equal).
  static bool is_ancestor_of(const FsNode* ancestor, const FsNode* node);

  // --- Sampling support ----------------------------------------------------
  /// All regular files / all directories, in unspecified order. Stable
  /// positions except for swap-removals; suitable for uniform sampling.
  const std::vector<FsNode*>& files() const { return files_; }
  const std::vector<FsNode*>& dirs() const { return dirs_; }

  std::uint64_t node_count() const { return node_count_; }

  /// Walk the whole tree depth-first (root included).
  void visit(const std::function<void(FsNode*)>& fn) const;

 private:
  FsNode* create(FsNode* dir, const std::string& name, FileType type,
                 const Perms& perms, SimTime now);
  void index_node(FsNode* node);
  void unindex_node(FsNode* node);
  void adjust_subtree_sizes(FsNode* from, std::int64_t delta);
  void bump_version(FsNode* node, SimTime now);

  void index_ino(InodeId ino, FsNode* node) {
    if (ino >= by_ino_.size()) by_ino_.resize(ino + 1, nullptr);
    by_ino_[ino] = node;
  }

  std::unique_ptr<FsNode> root_;
  /// Tombstones, owned here while requests and caches may still hold them.
  std::vector<std::unique_ptr<FsNode>> graveyard_;
  std::vector<FsNode*> by_ino_;  // dense: indexed by InodeId
  std::vector<FsNode*> files_;
  std::vector<FsNode*> dirs_;
  std::vector<RemoteLink> links_;
  InodeId next_ino_ = kRootInode + 1;
  std::uint64_t node_count_ = 0;
};

}  // namespace mdsim
