#include "storage/object_store.h"

#include <cassert>

namespace mdsim {

DirBTree* ObjectStore::find(FsNode* dir) {
  auto it = objects_.find(dir->ino());
  return it == objects_.end() ? nullptr : it->second.get();
}

DirBTree& ObjectStore::materialize(FsNode* dir) {
  assert(dir->is_dir());
  auto it = objects_.find(dir->ino());
  if (it != objects_.end()) return *it->second;
  auto tree = std::make_unique<DirBTree>(btree_order_);
  for (const FsNode* child : dir->children_list()) {
    DirRecord rec{child->ino(), child->inode().version, child->is_dir()};
    tree->insert(child->name(), rec, nullptr);
  }
  DirBTree& ref = *tree;
  objects_.emplace(dir->ino(), std::move(tree));
  return ref;
}

std::uint32_t ObjectStore::full_fetch_nodes(FsNode* dir) {
  DirBTree& t = materialize(dir);
  return static_cast<std::uint32_t>(t.node_count());
}

std::uint32_t ObjectStore::lookup_nodes(FsNode* dir, const std::string& name) {
  DirBTree& t = materialize(dir);
  BTreeIoCost cost;
  t.find(name, &cost);
  return cost.nodes_read;
}

std::uint32_t ObjectStore::apply_create(FsNode* dir, const std::string& name,
                                        const DirRecord& rec) {
  DirBTree& t = materialize(dir);
  BTreeIoCost cost;
  t.insert(name, rec, &cost);
  return cost.nodes_written;
}

std::uint32_t ObjectStore::apply_remove(FsNode* dir, const std::string& name) {
  DirBTree& t = materialize(dir);
  BTreeIoCost cost;
  t.erase(name, &cost);
  return cost.nodes_written;
}

std::uint32_t ObjectStore::apply_update(FsNode* dir, const std::string& name,
                                        const DirRecord& rec) {
  DirBTree& t = materialize(dir);
  BTreeIoCost cost;
  t.insert(name, rec, &cost);  // overwrite in place
  return cost.nodes_written;
}

void ObjectStore::drop(FsNode* dir) { objects_.erase(dir->ino()); }

}  // namespace mdsim
