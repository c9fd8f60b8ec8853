// B+tree directory-object format (paper section 4.6): directory contents
// (dentries with embedded inodes) are stored "in a B-tree-like structure
// (similar to XFS) that allows incremental updates ... with minimal
// modifications to on-disk structures (rewriting changed B-tree nodes)".
//
// This is a real B+tree: internal nodes route by key, leaves hold
// (name -> record) pairs and are chained for in-order scans. Every
// operation reports how many tree nodes it read and dirtied, which the
// object store converts into simulated I/O cost.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace mdsim {

/// Value stored per dentry: the embedded inode reference.
struct DirRecord {
  InodeId ino = kInvalidInode;
  std::uint64_t version = 0;
  bool is_dir = false;

  bool operator==(const DirRecord&) const = default;
};

/// Per-operation I/O accounting.
struct BTreeIoCost {
  std::uint32_t nodes_read = 0;
  std::uint32_t nodes_written = 0;

  BTreeIoCost& operator+=(const BTreeIoCost& o) {
    nodes_read += o.nodes_read;
    nodes_written += o.nodes_written;
    return *this;
  }
};

class DirBTree {
 public:
  /// `order`: max keys per node (leaf and internal). Minimum occupancy is
  /// (order-1)/2 except for the root.
  explicit DirBTree(std::uint32_t order = 32);
  ~DirBTree();
  DirBTree(const DirBTree&) = delete;
  DirBTree& operator=(const DirBTree&) = delete;

  /// Insert or overwrite. Returns true if the key was new.
  bool insert(const std::string& key, const DirRecord& rec, BTreeIoCost* cost);
  /// Returns nullptr if absent.
  const DirRecord* find(const std::string& key, BTreeIoCost* cost) const;
  /// Returns true if the key existed.
  bool erase(const std::string& key, BTreeIoCost* cost);

  /// In-order scan of all entries (a readdir). Cost = all leaves read.
  void scan(const std::function<void(const std::string&, const DirRecord&)>&
                fn,
            BTreeIoCost* cost) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t height() const;
  std::size_t node_count() const { return node_count_; }
  std::uint32_t order() const { return order_; }

  /// Verify structural invariants (ordering, occupancy, uniform leaf
  /// depth, chain consistency). Returns empty string if healthy, else a
  /// description of the first violation. For tests.
  std::string check_invariants() const;

 private:
  struct Node;
  struct FindResult;

  Node* root_ = nullptr;
  std::uint32_t order_;
  std::size_t size_ = 0;
  std::size_t node_count_ = 0;

  void touch_write(Node* n, BTreeIoCost* cost);
  Node* new_node(bool leaf);
  void free_node(Node* n);
  void free_subtree(Node* n);

  void split_child(Node* parent, std::size_t idx, BTreeIoCost* cost);
  void rebalance_child(Node* parent, std::size_t idx, BTreeIoCost* cost);
};

}  // namespace mdsim
