#include "strategy/partition.h"

#include <cassert>

namespace mdsim {

StrategyTraits traits_for(StrategyKind kind) {
  StrategyTraits t;
  switch (kind) {
    case StrategyKind::kDynamicSubtree:
      t.whole_directory_io = true;
      t.path_traversal = true;
      t.client_computes_location = false;
      t.load_balancing = true;
      t.traffic_control = true;
      t.dynamic_dirfrag = true;
      break;
    case StrategyKind::kStaticSubtree:
      t.whole_directory_io = true;
      t.path_traversal = true;
      t.client_computes_location = false;
      t.load_balancing = false;
      t.traffic_control = false;
      t.dynamic_dirfrag = false;
      break;
    case StrategyKind::kDirHash:
      t.whole_directory_io = true;
      t.path_traversal = true;
      t.client_computes_location = true;
      t.load_balancing = false;
      t.traffic_control = false;
      t.dynamic_dirfrag = false;
      break;
    case StrategyKind::kFileHash:
      t.whole_directory_io = false;
      t.path_traversal = true;
      t.client_computes_location = true;
      t.load_balancing = false;
      t.traffic_control = false;
      t.dynamic_dirfrag = false;
      break;
    case StrategyKind::kLazyHybrid:
      t.whole_directory_io = false;
      t.path_traversal = false;  // dual-entry ACLs replace traversal
      t.client_computes_location = true;
      t.load_balancing = false;
      t.traffic_control = false;
      t.dynamic_dirfrag = false;
      break;
  }
  return t;
}

// --- SubtreePartition -----------------------------------------------------

SubtreePartition::SubtreePartition(StrategyKind kind, int num_mds)
    : kind_(kind), num_mds_(num_mds) {
  assert(kind == StrategyKind::kDynamicSubtree ||
         kind == StrategyKind::kStaticSubtree);
  assert(num_mds > 0);
}

MdsId SubtreePartition::authority_of(const FsNode* node) const {
  for (const FsNode* n = node; n != nullptr; n = n->parent()) {
    const MdsId holder = current(n->ino());
    if (holder >= 0) return holder;
  }
  return 0;  // root default: MDS 0 owns undelegated territory
}

MdsId SubtreePartition::authority_of_at(const FsNode* node,
                                        std::uint64_t epoch) const {
  for (const FsNode* n = node; n != nullptr; n = n->parent()) {
    auto it = delegation_.find(n->ino());
    if (it != delegation_.end()) {
      const auto& recs = it->second;
      for (auto r = recs.rbegin(); r != recs.rend(); ++r) {
        if (r->epoch <= epoch) return r->mds;  // newer ones are invisible
      }
    }
  }
  return 0;
}

MdsId SubtreePartition::delegate(const FsNode* subtree_root, MdsId to) {
  assert(to >= 0 && to < num_mds_);
  const MdsId prev = authority_of(subtree_root);
  auto& recs = delegation_[subtree_root->ino()];
  if (!recs.empty() && recs.back().epoch == epoch_) {
    recs.back().mds = to;
  } else {
    recs.push_back(Record{epoch_, to});
  }
  set_current(subtree_root->ino(), to);
  nodes_[subtree_root->ino()] = subtree_root;
  return prev;
}

bool SubtreePartition::is_delegation_point(const FsNode* node) const {
  // current_ mirrors back().mds exactly (kInvalidMds when absent), so
  // this is one load instead of a hash probe.
  return current(node->ino()) >= 0;
}

std::vector<const FsNode*> SubtreePartition::delegations_of(MdsId mds) const {
  std::vector<const FsNode*> out;
  for (const auto& [ino, recs] : delegation_) {
    if (recs.back().mds == mds) out.push_back(nodes_.at(ino));
  }
  return out;
}

std::size_t SubtreePartition::delegation_count() const {
  return delegation_.size();
}

std::vector<const FsNode*> SubtreePartition::known_roots() const {
  std::vector<const FsNode*> out;
  out.reserve(nodes_.size());
  for (const auto& [ino, node] : nodes_) out.push_back(node);
  return out;
}

void SubtreePartition::initialize_by_hashing_top_dirs(const FsTree& tree,
                                                      int depth) {
  // Paper section 5.1: "The initial metadata partition ... is created by
  // hashing directories near the root of the hierarchy." Descend past
  // thin fan-out levels (e.g. /home's group shards) until the frontier is
  // wide enough to spread over the cluster.
  delegation_.clear();
  nodes_.clear();
  current_.clear();
  std::vector<const FsNode*> frontier{tree.root()};
  const std::size_t want =
      std::max<std::size_t>(4, 2 * static_cast<std::size_t>(num_mds_));
  for (int d = 0; d < depth + 2; ++d) {
    if (d >= depth && frontier.size() >= want) break;
    std::vector<const FsNode*> next;
    for (const FsNode* n : frontier) {
      for (const FsNode* c : n->children_list()) {
        if (c->is_dir()) next.push_back(c);
      }
    }
    if (next.empty()) break;
    frontier = std::move(next);
  }
  for (const FsNode* n : frontier) {
    const MdsId mds =
        static_cast<MdsId>(n->path_hash() % static_cast<std::uint64_t>(
                                                num_mds_));
    delegation_[n->ino()] = {Record{epoch_, mds}};
    set_current(n->ino(), mds);
    nodes_[n->ino()] = n;
  }
}

// --- HashPartition ----------------------------------------------------------

HashPartition::HashPartition(StrategyKind kind, int num_mds)
    : kind_(kind), num_mds_(num_mds) {
  assert(kind == StrategyKind::kDirHash || kind == StrategyKind::kFileHash ||
         kind == StrategyKind::kLazyHybrid);
  assert(num_mds > 0);
}

MdsId HashPartition::authority_of(const FsNode* node) const {
  const std::uint64_t n = static_cast<std::uint64_t>(num_mds_);
  if (kind_ == StrategyKind::kDirHash) {
    // A dentry (and its embedded inode) lives with its containing
    // directory; the root maps by its own hash.
    const FsNode* dir = node->parent() != nullptr ? node->parent() : node;
    return static_cast<MdsId>(dir->path_hash() % n);
  }
  // File-granularity: hash of the item's own full path.
  return static_cast<MdsId>(node->path_hash() % n);
}

std::unique_ptr<Partitioner> make_partitioner(StrategyKind kind, int num_mds,
                                              const FsTree& tree) {
  switch (kind) {
    case StrategyKind::kDynamicSubtree:
    case StrategyKind::kStaticSubtree: {
      auto p = std::make_unique<SubtreePartition>(kind, num_mds);
      p->initialize_by_hashing_top_dirs(tree);
      return p;
    }
    case StrategyKind::kDirHash:
    case StrategyKind::kFileHash:
    case StrategyKind::kLazyHybrid:
      return std::make_unique<HashPartition>(kind, num_mds);
  }
  return nullptr;
}

}  // namespace mdsim
