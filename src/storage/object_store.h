// Long-term metadata tier: a shared pool of variably sized directory
// objects (paper section 4.6). Each directory's contents — dentries with
// embedded inodes — live in one B+tree object; the store reports the
// object-node cost of fetches and incremental updates, which the caller
// converts to simulated disk time through its DiskModel.
//
// The store is logically shared by the whole MDS cluster (it models the
// OSD pool); only the directory's authoritative MDS writes to an object.
//
// Directory objects are materialized lazily from the ground-truth tree the
// first time they are touched, then kept in sync incrementally by the
// mutation hooks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "fstree/tree.h"
#include "storage/btree.h"

namespace mdsim {

class ObjectStore {
 public:
  explicit ObjectStore(std::uint32_t btree_order = 32)
      : btree_order_(btree_order) {}

  /// Cost (in object nodes) of reading the entire directory object —
  /// a readdir or a whole-directory fetch with embedded-inode prefetch.
  std::uint32_t full_fetch_nodes(FsNode* dir);

  /// Cost of locating a single dentry inside the object (root-to-leaf).
  std::uint32_t lookup_nodes(FsNode* dir, const std::string& name);

  /// Cost of fetching exactly one embedded inode *without* the rest of the
  /// directory (the file-granularity strategies): one object node.
  std::uint32_t single_inode_nodes() const { return 1; }

  /// Apply an incremental create/remove/update to the object; returns the
  /// number of nodes dirtied (to be written back).
  std::uint32_t apply_create(FsNode* dir, const std::string& name,
                             const DirRecord& rec);
  std::uint32_t apply_remove(FsNode* dir, const std::string& name);
  std::uint32_t apply_update(FsNode* dir, const std::string& name,
                             const DirRecord& rec);

  /// Drop the materialized object (e.g. after rmdir).
  void drop(FsNode* dir);

  std::size_t materialized_objects() const { return objects_.size(); }

  /// Direct access for tests.
  DirBTree* object_for_testing(FsNode* dir) { return find(dir); }

 private:
  DirBTree& materialize(FsNode* dir);
  DirBTree* find(FsNode* dir);

  std::uint32_t btree_order_;
  std::unordered_map<InodeId, std::unique_ptr<DirBTree>> objects_;
};

}  // namespace mdsim
