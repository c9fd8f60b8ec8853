#include "strategy/lazy_hybrid.h"

#include <cassert>

namespace mdsim {

std::uint64_t LazyHybridManager::invalidate_subtree(FsNode* dir) {
  assert(dir->is_dir());
  ++dir_epoch_[dir->ino()];
  // Queue every nested item for lazy update. The queue stores inode ids so
  // entries deleted before their update simply drop out.
  std::uint64_t affected = 0;
  std::vector<FsNode*> stack{dir};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    for (FsNode* c : n->children_list()) {
      queue_.push_back(c->ino());
      ++affected;
      if (c->is_dir()) stack.push_back(c);
    }
  }
  total_invalidations_ += affected;
  return affected;
}

std::uint64_t LazyHybridManager::effective_epoch(const FsNode* node) const {
  std::uint64_t sum = 0;
  for (const FsNode* n = node->parent(); n != nullptr; n = n->parent()) {
    auto it = dir_epoch_.find(n->ino());
    if (it != dir_epoch_.end()) sum += it->second;
  }
  return sum;
}

bool LazyHybridManager::is_stale(const FsNode* node) const {
  const std::uint64_t eff = effective_epoch(node);
  if (eff == 0) return false;
  auto it = stored_epoch_.find(node->ino());
  const std::uint64_t stored = it == stored_epoch_.end() ? 0 : it->second;
  return stored < eff;
}

void LazyHybridManager::refresh(const FsNode* node) {
  stored_epoch_[node->ino()] = effective_epoch(node);
  ++total_refreshes_;
}

FsNode* LazyHybridManager::drain_one() {
  while (!queue_.empty()) {
    const InodeId ino = queue_.front();
    queue_.pop_front();
    FsNode* node = tree_.by_ino(ino);
    if (node == nullptr) continue;      // deleted before its update: free
    if (!is_stale(node)) continue;      // superseded/already refreshed: free
    refresh(node);
    return node;
  }
  return nullptr;
}

}  // namespace mdsim
