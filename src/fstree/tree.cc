#include "fstree/tree.h"

#include <algorithm>
#include <cassert>

#include "fstree/path.h"

namespace mdsim {

namespace {
// FNV-1a over the component name, chained with the parent's path hash.
std::uint64_t chain_hash(std::uint64_t parent_hash, const std::string& name) {
  std::uint64_t h = parent_hash ^ 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Final avalanche so short names still spread across the id space.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}
}  // namespace

std::uint64_t child_path_hash(const FsNode* dir, const std::string& name) {
  return chain_hash(dir->path_hash(), name);
}

namespace {
/// Keep the flat child mirror in the map's name order. Names are unique
/// within a directory, so lower_bound lands exactly on the child (erase)
/// or its insertion point (insert).
auto list_pos(std::vector<FsNode*>& v, const std::string& name) {
  return std::lower_bound(v.begin(), v.end(), name,
                          [](const FsNode* a, const std::string& n) {
                            return a->name() < n;
                          });
}
}  // namespace

FsNode* FsNode::child(const std::string& name) const {
  auto it = children_.find(name);
  return it == children_.end() ? nullptr : it->second.get();
}

std::string FsNode::path() const {
  if (parent_ == nullptr) return "/";
  std::vector<const FsNode*> chain;
  for (const FsNode* n = this; n->parent_ != nullptr; n = n->parent_) {
    chain.push_back(n);
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out += '/';
    out += (*it)->name_;
  }
  return out;
}

std::vector<FsNode*> FsNode::ancestry() {
  std::vector<FsNode*> chain;
  ancestry_into(chain);
  return chain;
}

void FsNode::ancestry_into(std::vector<FsNode*>& out) {
  out.clear();
  for (FsNode* n = this; n != nullptr; n = n->parent_) out.push_back(n);
  std::reverse(out.begin(), out.end());
}

FsTree::FsTree() {
  root_ = std::make_unique<FsNode>();
  root_->name_ = "";
  root_->inode_.ino = kRootInode;
  root_->inode_.type = FileType::kDirectory;
  root_->inode_.nlink = 2;
  root_->depth_ = 0;
  index_ino(kRootInode, root_.get());
  root_->dir_index_ = dirs_.size();
  dirs_.push_back(root_.get());
  node_count_ = 1;
}

void FsTree::index_node(FsNode* node) {
  index_ino(node->ino(), node);
  if (node->is_dir()) {
    node->dir_index_ = dirs_.size();
    dirs_.push_back(node);
  } else {
    node->file_index_ = files_.size();
    files_.push_back(node);
  }
  ++node_count_;
}

void FsTree::unindex_node(FsNode* node) {
  by_ino_[node->ino()] = nullptr;
  auto swap_pop = [](std::vector<FsNode*>& v, std::size_t idx, bool is_dir) {
    assert(idx < v.size() && "node not present in sampling index");
    FsNode* last = v.back();
    v[idx] = last;
    if (is_dir) {
      last->dir_index_ = idx;
    } else {
      last->file_index_ = idx;
    }
    v.pop_back();
  };
  if (node->is_dir()) {
    swap_pop(dirs_, node->dir_index_, /*is_dir=*/true);
    node->dir_index_ = SIZE_MAX;
  } else {
    swap_pop(files_, node->file_index_, /*is_dir=*/false);
    node->file_index_ = SIZE_MAX;
  }
  --node_count_;
}

void FsTree::adjust_subtree_sizes(FsNode* from, std::int64_t delta) {
  for (FsNode* n = from; n != nullptr; n = n->parent_) {
    n->subtree_size_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(n->subtree_size_) + delta);
  }
}

void FsTree::bump_version(FsNode* node, SimTime now) {
  ++node->inode_.version;
  node->inode_.ctime = now;
}

FsNode* FsTree::attach(FsNode* dir, std::unique_ptr<FsNode> node) {
  assert(dir != nullptr && dir->is_dir());
  FsNode* raw = node.get();
  raw->parent_ = dir;
  raw->depth_ = dir->depth_ + 1;
  raw->path_hash_ = chain_hash(dir->path_hash_, raw->name_);
  auto [it, inserted] = dir->children_.emplace(raw->name_, std::move(node));
  if (!inserted) return nullptr;
  dir->child_list_.insert(list_pos(dir->child_list_, raw->name_), raw);
  index_node(raw);
  adjust_subtree_sizes(dir, +1);
  return raw;
}

FsNode* FsTree::create_file(FsNode* dir, const std::string& name,
                            const Perms& perms, SimTime now) {
  if (dir->child(name) != nullptr) return nullptr;
  auto node = std::make_unique<FsNode>();
  node->name_ = name;
  node->inode_.ino = next_ino_++;
  node->inode_.type = FileType::kFile;
  node->inode_.perms = perms;
  node->inode_.mtime = now;
  node->inode_.ctime = now;
  FsNode* raw = attach(dir, std::move(node));
  if (raw != nullptr) bump_version(dir, now);
  return raw;
}

FsNode* FsTree::mkdir(FsNode* dir, const std::string& name,
                      const Perms& perms, SimTime now) {
  if (dir->child(name) != nullptr) return nullptr;
  auto node = std::make_unique<FsNode>();
  node->name_ = name;
  node->inode_.ino = next_ino_++;
  node->inode_.type = FileType::kDirectory;
  node->inode_.perms = perms;
  node->inode_.nlink = 2;
  node->inode_.mtime = now;
  node->inode_.ctime = now;
  FsNode* raw = attach(dir, std::move(node));
  if (raw != nullptr) bump_version(dir, now);
  return raw;
}

bool FsTree::remove(FsNode* node) {
  if (node == root_.get()) return false;
  if (node->is_dir() && !node->children_.empty()) return false;
  for (const RemoteLink& l : links_) {
    if (l.target == node->ino()) return false;
  }
  FsNode* dir = node->parent_;
  unindex_node(node);
  adjust_subtree_sizes(dir, -1);
  auto it = dir->children_.find(node->name_);
  assert(it != dir->children_.end());
  graveyard_[dir].push_back(std::move(it->second));
  dir->children_.erase(it);
  dir->child_list_.erase(list_pos(dir->child_list_, node->name_));
  bump_version(dir, dir->inode_.ctime);
  return true;
}

bool FsTree::rename(FsNode* node, FsNode* new_parent,
                    const std::string& new_name) {
  if (node == root_.get()) return false;
  if (!new_parent->is_dir()) return false;
  if (is_ancestor_of(node, new_parent)) return false;
  if (new_parent->child(new_name) != nullptr) return false;

  FsNode* old_parent = node->parent_;
  auto it = old_parent->children_.find(node->name_);
  assert(it != old_parent->children_.end());
  std::unique_ptr<FsNode> owned = std::move(it->second);
  old_parent->children_.erase(it);
  old_parent->child_list_.erase(
      list_pos(old_parent->child_list_, node->name_));
  const auto moved = static_cast<std::int64_t>(node->subtree_size_);
  adjust_subtree_sizes(old_parent, -moved);

  owned->name_ = new_name;
  owned->parent_ = new_parent;
  FsNode* raw = owned.get();
  new_parent->children_.emplace(new_name, std::move(owned));
  new_parent->child_list_.insert(list_pos(new_parent->child_list_, new_name),
                                 raw);
  adjust_subtree_sizes(new_parent, +moved);

  // Depths and path hashes of the whole moved subtree change.
  std::function<void(FsNode*)> fix_subtree = [&](FsNode* n) {
    n->depth_ = n->parent_->depth_ + 1;
    n->path_hash_ = chain_hash(n->parent_->path_hash_, n->name_);
    for (auto& [_, c] : n->children_) fix_subtree(c.get());
  };
  fix_subtree(raw);

  bump_version(old_parent, old_parent->inode_.ctime);
  bump_version(new_parent, new_parent->inode_.ctime);
  bump_version(raw, raw->inode_.ctime);
  return true;
}

void FsTree::chmod(FsNode* node, const Perms& perms, SimTime now) {
  node->inode_.perms = perms;
  bump_version(node, now);
}

void FsTree::touch(FsNode* node, std::uint64_t new_size, SimTime now) {
  node->inode_.size = new_size;
  node->inode_.mtime = now;
  bump_version(node, now);
}

bool FsTree::link(FsNode* target, FsNode* dir, const std::string& name) {
  if (target->is_dir()) return false;
  if (dir->child(name) != nullptr) return false;
  for (const RemoteLink& l : links_) {
    if (l.dir == dir && l.name == name) return false;
  }
  links_.push_back(RemoteLink{dir, name, target->ino()});
  ++target->mutable_inode().nlink;
  return true;
}

FsNode* FsTree::lookup(const std::string& path) const {
  FsNode* cur = root_.get();
  for (const std::string& comp : split_path(path)) {
    if (!cur->is_dir()) return nullptr;
    cur = cur->child(comp);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

bool FsTree::is_ancestor_of(const FsNode* ancestor, const FsNode* node) {
  for (const FsNode* n = node; n != nullptr; n = n->parent()) {
    if (n == ancestor) return true;
  }
  return false;
}

void FsTree::visit(const std::function<void(FsNode*)>& fn) const {
  std::vector<FsNode*> stack{root_.get()};
  while (!stack.empty()) {
    FsNode* n = stack.back();
    stack.pop_back();
    fn(n);
    for (auto& [_, c] : n->children()) stack.push_back(c.get());
  }
}

}  // namespace mdsim
