#include "fstree/tree.h"

#include <algorithm>
#include <cassert>

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

ChildList::Slot ChildList::locate(const std::string& name) const {
  Slot slot;
  if (blocks_.empty()) return slot;
  // The first block whose last name is not below `name` holds it or its
  // insertion point; past every block, it appends to the last one.
  const auto blk = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [&](const Block& b) { return b.back()->name() < name; });
  if (blk == blocks_.end()) {
    slot.block = blocks_.size() - 1;
    slot.pos = blocks_.back().size();
    return slot;
  }
  const auto it = std::partition_point(
      blk->begin(), blk->end(),
      [&](const std::unique_ptr<FsNode>& c) { return c->name() < name; });
  slot.block = static_cast<std::size_t>(blk - blocks_.begin());
  slot.pos = static_cast<std::size_t>(it - blk->begin());
  slot.found = (*it)->name() == name;
  return slot;
}

FsNode* ChildList::find(const std::string& name) const {
  const Slot slot = locate(name);
  return slot.found ? blocks_[slot.block][slot.pos].get() : nullptr;
}

void ChildList::insert(const Slot& slot, std::unique_ptr<FsNode> node) {
  assert(!slot.found);
  ++size_;
  if (blocks_.empty()) {
    blocks_.emplace_back().push_back(std::move(node));
    return;
  }
  std::size_t b = slot.block;
  std::size_t pos = slot.pos;
  if (blocks_[b].size() < kBlock) {
    blocks_[b].insert(blocks_[b].begin() + pos, std::move(node));
    return;
  }
  // Split the full block in half; the node goes into the half that holds
  // its position. A half may then fit with its outer neighbour: fold it
  // in so no two adjacent blocks fit in one.
  constexpr std::size_t kHalf = kBlock / 2;
  Block upper(std::make_move_iterator(blocks_[b].begin() + kHalf),
              std::make_move_iterator(blocks_[b].end()));
  blocks_[b].erase(blocks_[b].begin() + kHalf, blocks_[b].end());
  blocks_.insert(blocks_.begin() + b + 1, std::move(upper));
  const std::size_t lower = b;
  if (pos > kHalf) {
    ++b;
    pos -= kHalf;
  }
  blocks_[b].insert(blocks_[b].begin() + pos, std::move(node));
  merge_if_fits(lower + 1);
  if (lower > 0) merge_if_fits(lower - 1);
}

std::unique_ptr<FsNode> ChildList::erase(const FsNode* node) {
  const Slot slot = locate(node->name());
  assert(slot.found && blocks_[slot.block][slot.pos].get() == node);
  Block& blk = blocks_[slot.block];
  std::unique_ptr<FsNode> owned = std::move(blk[slot.pos]);
  blk.erase(blk.begin() + slot.pos);
  --size_;
  if (blk.empty()) {
    blocks_.erase(blocks_.begin() + slot.block);
  } else {
    merge_if_fits(slot.block);
  }
  if (slot.block > 0) merge_if_fits(slot.block - 1);
  return owned;
}

void ChildList::merge_if_fits(std::size_t i) {
  if (i + 1 >= blocks_.size()) return;
  Block& into = blocks_[i];
  Block& from = blocks_[i + 1];
  if (into.size() + from.size() > kBlock) return;
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  blocks_.erase(blocks_.begin() + i + 1);
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

FsNode* FsTree::create(FsNode* dir, const std::string& name, FileType type,
                       const Perms& perms, SimTime now) {
  assert(dir != nullptr && dir->is_dir());
  // One search finds both a duplicate and the insertion slot; a duplicate
  // returns before an inode number is spent.
  const ChildList::Slot slot = dir->children_.locate(name);
  if (slot.found) return nullptr;
  auto node = std::make_unique<FsNode>();
  node->name_ = name;
  node->inode_.ino = next_ino_++;
  node->inode_.type = type;
  node->inode_.perms = perms;
  if (type == FileType::kDirectory) node->inode_.nlink = 2;
  node->inode_.mtime = now;
  node->inode_.ctime = now;
  node->parent_ = dir;
  node->depth_ = dir->depth_ + 1;
  node->path_hash_ = chain_hash(dir->path_hash_, name);
  node->dentry_hash_ = giga_name_hash(dir->ino(), name);
  FsNode* raw = node.get();
  dir->children_.insert(slot, std::move(node));
  index_node(raw);
  adjust_subtree_sizes(dir, +1);
  bump_version(dir, now);
  return raw;
}

FsNode* FsTree::create_file(FsNode* dir, const std::string& name,
                            const Perms& perms, SimTime now) {
  return create(dir, name, FileType::kFile, perms, now);
}

FsNode* FsTree::mkdir(FsNode* dir, const std::string& name,
                      const Perms& perms, SimTime now) {
  return create(dir, name, FileType::kDirectory, perms, now);
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
  graveyard_.push_back(dir->children_.erase(node));
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
  std::unique_ptr<FsNode> owned = old_parent->children_.erase(node);
  const auto moved = static_cast<std::int64_t>(node->subtree_size_);
  adjust_subtree_sizes(old_parent, -moved);

  owned->name_ = new_name;
  owned->parent_ = new_parent;
  owned->dentry_hash_ = giga_name_hash(new_parent->ino(), new_name);
  FsNode* raw = owned.get();
  // Located after the erase: in a same-directory rename it may have
  // reshaped the blocks.
  new_parent->children_.insert(new_parent->children_.locate(new_name),
                               std::move(owned));
  adjust_subtree_sizes(new_parent, +moved);

  // Depths and path hashes of the whole moved subtree change.
  std::function<void(FsNode*)> fix_subtree = [&](FsNode* n) {
    n->depth_ = n->parent_->depth_ + 1;
    n->path_hash_ = chain_hash(n->parent_->path_hash_, n->name_);
    for (FsNode* c : n->children_) fix_subtree(c);
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
  for (std::size_t i = 0; i < path.size();) {
    const std::size_t j = std::min(path.find('/', i), path.size());
    if (j > i) {
      if (!cur->is_dir()) return nullptr;
      cur = cur->child(path.substr(i, j - i));
      if (cur == nullptr) return nullptr;
    }
    i = j + 1;
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
    for (FsNode* c : n->children_) stack.push_back(c);
  }
}

}  // namespace mdsim
