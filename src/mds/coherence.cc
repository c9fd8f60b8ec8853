// Callback-based cache coherence within the MDS cluster (paper section
// 4.2): each item's authority tracks which peers hold replicas, sends
// invalidations when the item changes, and is released when a holder
// discards its copy.
#include <algorithm>
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

void MdsNode::register_replica(InodeId ino, MdsId holder) {
  if (holder == id_) return;
  EntryAux& a = cache_.aux_ensure(ino);
  if (!a.holds(holder)) a.replica_holders.push_back(holder);
}

void MdsNode::unregister_replica(InodeId ino, MdsId holder) {
  EntryAux* a = cache_.aux_peek(ino);
  if (a == nullptr) return;
  auto& holders = a->replica_holders;
  auto it = std::find(holders.begin(), holders.end(), holder);
  if (it == holders.end()) return;
  holders.erase(it);
  cache_.aux_gc(ino);
}

void MdsNode::invalidate_replicas(InodeId ino, bool removed) {
  EntryAux* a = cache_.aux_peek(ino);
  if (a == nullptr || a->replica_holders.empty()) return;
  for (MdsId holder : a->replica_holders) {
    auto msg = std::make_unique<CacheInvalidateMsg>();
    msg->ino = ino;
    msg->removed = removed;
    msg->epoch = view_epoch_;
    ++stats_.invalidations_sent;
    ctx_.net.send(id_, holder, std::move(msg));
  }
  a->replica_holders.clear();
  a->replicated_everywhere = false;
  cache_.aux_gc(ino);
}

std::uint64_t MdsNode::collect_move_victims(const FsNode* moved,
                                            std::vector<CacheEntry*>& victims) {
  // The cache hands over everything below the moved directory (tombstones
  // included: a cached removed node still sits below its former
  // directory) in scan order, so the unstable depth sort below produces
  // the same erase order as it would over a whole-cache scan.
  const std::uint64_t visited = cache_.collect_below(
      moved, MetadataCache::Reach::kSubtree, victims);
  std::sort(victims.begin(), victims.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->node->depth() > b->node->depth();
            });
  return visited;
}

void MdsNode::handle_invalidate(const CacheInvalidateMsg& m) {
  if (m.epoch < view_epoch_) {
    // Coherence traffic from a superseded regime (a sender fenced across a
    // reconfiguration): its authority claims are stale — ignore.
    ++stats_.stale_epoch_rejects;
    return;
  }
  if (EntryAux* a = cache_.aux_peek(m.ino)) {
    a->replicated_everywhere = false;
    cache_.aux_gc(m.ino);
  }
  if (m.whole_subtree) {
    // A directory moved: every cached descendant is stale (its position,
    // and under hashing its location, changed). Collect, then drop
    // deepest-first to respect the cache tree invariant.
    FsNode* moved = ctx_.tree.by_ino(m.ino);
    if (moved == nullptr) return;
    std::vector<CacheEntry*> victims;
    ++stats_.move_sweeps;
    stats_.move_sweep_nodes += collect_move_victims(moved, victims);
    // Silent drop: the mover already discarded its registry state via
    // the broadcast; no per-item drop message needed.
    for (CacheEntry* v : victims) cache_.erase(v->node->ino());
    // The moved directory's own entry (if any) stays if authoritative
    // under the *new* position, else drop it too.
    CacheEntry* e = cache_.peek(m.ino);
    if (e != nullptr && !e->authoritative && e->cached_children == 0) {
      cache_.erase(m.ino);
    }
    return;
  }
  CacheEntry* e = cache_.peek(m.ino);
  if (e == nullptr || e->authoritative) return;
  if (e->cached_children > 0 || e->pins > 0) {
    // Cannot drop a prefix that anchors cached children: refresh instead
    // (the authority keeps us registered via the re-fetch below). We model
    // the refresh as free of I/O — the invalidation carried the update.
    if (!m.removed) {
      e->version = e->node->inode().version;
      // Stay registered at the authority for future updates.
      const MdsId auth = authority_for(e->node);
      if (auth != id_) {
        ctx_.nodes[static_cast<std::size_t>(auth)]->register_replica(
            m.ino, id_);
      }
      return;
    }
    // Removed upstream but we still anchor children: keep the tombstone
    // copy; it will drain as children expire.
    return;
  }
  cache_.erase(m.ino);
}

void MdsNode::handle_replica_drop(NetAddr from, const ReplicaDropMsg& m) {
  unregister_replica(m.ino, from);
}

void MdsNode::on_cache_evict(const CacheEntry& e) {
  // Keep the parent's readdir completeness honest.
  if (e.node->parent() != nullptr) {
    CacheEntry* p = cache_.peek(e.node->parent()->ino());
    if (p != nullptr) p->complete = false;
  }
  // The cache clears the sidecar's replicated-everywhere flag itself when
  // it tears the entry down.
  if (!e.authoritative) {
    // Notify the authority so it can stop invalidating us (paper section
    // 4.2: "if a node discards an inode for which it is not authoritative
    // from its cache, it will notify the authority").
    const MdsId auth = authority_for(e.node);
    if (auth != id_ && auth >= 0) {
      auto msg = std::make_unique<ReplicaDropMsg>();
      msg->ino = e.node->ino();
      ctx_.net.send(id_, auth, std::move(msg));
    }
  }
}

}  // namespace mdsim
