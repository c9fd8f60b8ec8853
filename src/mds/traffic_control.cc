// Traffic control (paper section 4.4): the authority monitors per-item
// popularity with decayed access counters; replies carry distribution
// information for the target and its prefixes; popular items are
// preemptively replicated cluster-wide so flash crowds spread across all
// nodes instead of converging on the authority. Also hosts the dynamic
// directory fragmentation decisions (section 4.3).
#include <algorithm>
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

void MdsNode::note_popularity(RequestPtr req) {
  if (!req->counts_as_served || req->target == nullptr) return;
  const SimTime now = ctx_.sim.now();

  if (ctx_.traits.load_balancing) bump_subtree_load(req->target);

  CacheEntry* e = cache_.peek(req->target->ino());
  if (e == nullptr) return;

  if (ctx_.traits.traffic_control && ctx_.params.traffic_control_enabled) {
    maybe_replicate(req->target, e);
  }
  if (ctx_.traits.dynamic_dirfrag && ctx_.params.dirfrag_enabled) {
    // Only namespace-mutating ops heat a directory toward fragmentation.
    FsNode* dir = nullptr;
    switch (req->msg.op) {
      case OpType::kCreate:
      case OpType::kMkdir:
      case OpType::kLink:
        dir = req->target;  // the containing directory
        break;
      case OpType::kUnlink:
      case OpType::kRmdir:
      case OpType::kRename:
        dir = req->target->parent();
        break;
      default:
        break;
    }
    if (dir != nullptr) {
      EntryAux& a = cache_.aux_ensure(dir->ino());
      if (!a.has_dir_temp) {
        a.dir_op_temp = DecayCounter(ctx_.params.popularity_half_life);
        a.has_dir_temp = true;
      }
      a.dir_op_temp.hit(now);
      CacheEntry* de = cache_.peek(dir->ino());
      if (de != nullptr) maybe_fragment_dir(dir, de);
    }
  }
}

void MdsNode::maybe_replicate(FsNode* node, CacheEntry* entry) {
  const InodeId ino = node->ino();
  if (is_replicated_everywhere(ino)) return;
  if (authority_for(node) != id_) return;
  const double pop = entry->popularity.get(ctx_.sim.now());
  if (pop < ctx_.params.replication_threshold) return;

  // Replicate everywhere and remember it; future replies tell clients to
  // pick any node.
  cache_.aux_ensure(ino).replicated_everywhere = true;
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    register_replica(ino, peer);
    push_unsolicited_replica(node, peer);
  }
}

void MdsNode::push_unsolicited_replica(FsNode* node, MdsId to) {
  auto msg = std::make_unique<ReplicaGrantMsg>();
  msg->ino = node->ino();
  msg->unsolicited = true;
  msg->version = node->inode().version;
  ++stats_.replica_grants;
  ctx_.net.send(id_, to, std::move(msg));
}

void MdsNode::maybe_unreplicate() {
  if (!ctx_.traits.traffic_control) return;
  const SimTime now = ctx_.sim.now();
  // One sweep over the sidecar records: prune cold directory-op
  // temperature counters (re-evaluating fragmentation of still-hot ones
  // whose storms have ended), and drop stale replicate-everywhere marks.
  cache_.for_each_aux([&](InodeId ino, EntryAux& a) {
    bool dirty = false;
    if (a.has_dir_temp) {
      if (a.dir_op_temp.get(now) < 0.5 && !ctx_.dirfrag.is_fragmented(ino)) {
        a.has_dir_temp = false;
        a.dir_op_temp = DecayCounter();
        dirty = true;
      } else if (ctx_.dirfrag.is_fragmented(ino)) {
        FsNode* dir = ctx_.tree.by_ino(ino);
        if (dir != nullptr) maybe_fragment_dir(dir, nullptr);
      }
    }
    if (a.replicated_everywhere) {
      FsNode* node = ctx_.tree.by_ino(ino);
      bool drop = node == nullptr;
      if (!drop && authority_for(node) == id_) {
        CacheEntry* e = cache_.peek(ino);
        const double pop = e ? e->popularity.get(now) : 0.0;
        drop = pop < ctx_.params.unreplicate_threshold;
      }
      // Marks we merely *learned* (non-authority) expire with the replica
      // itself (handled on eviction/invalidation).
      if (drop) {
        a.replicated_everywhere = false;
        dirty = true;
      }
    }
    if (dirty) cache_.aux_gc(ino);
  });
}

void MdsNode::fill_hints(const RequestPtr& req, ClientReplyMsg& out) {
  if (req->target == nullptr) return;
  // Distribution info for the target and its prefix directories (clients
  // cache these and direct future requests accordingly). Runs once per
  // reply over the whole ancestry, so authority is resolved root-down
  // with authority_step() — one delegation-table load per node instead
  // of a full parent-chain walk per node (O(depth) total, not O(depth²)).
  const bool tc = ctx_.traits.traffic_control &&
                  ctx_.params.traffic_control_enabled;
  static thread_local std::vector<FsNode*> path;
  path.clear();
  for (FsNode* n = req->target; n != nullptr; n = n->parent()) {
    path.push_back(n);
  }
  // A fenced node resolves against the map as of its frozen view; rare,
  // and not expressible incrementally — take the per-node path.
  const bool lagging =
      subtree_map_ != nullptr && view_epoch_ != subtree_map_->epoch();
  MdsId auth = 0;  // matches authority_of()'s undelegated-root default
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    FsNode* n = *it;
    MdsId a;
    if (lagging) {
      a = map_authority(n);
    } else {
      auth = ctx_.partition.authority_step(n, auth);
      a = auth;
    }
    if (ctx_.traits.dynamic_dirfrag && n->parent() != nullptr) {
      if (const auto* g = ctx_.dirfrag.find(n->parent()->ino())) {
        a = ctx_.dirfrag.dentry_authority(g, n->dentry_hash());
      }
    }
    if (ctx_.traits.dynamic_dirfrag && n->is_dir()) {
      // GIGA+ piggyback: the deepest fragmented directory on the path
      // wins (root-down loop, so later assignments are deeper). A
      // since-unhashed directory gets bitmap 0 so stale clients drop
      // their cached map instead of routing by it forever.
      if (ctx_.dirfrag.is_fragmented(n->ino())) {
        const auto* g = ctx_.dirfrag.find(n->ino());
        if (g != nullptr && g->giga) {
          out.giga_dir = n->ino();
          out.giga_bitmap = g->bitmap;
          out.giga_home = g->home;
        }
      } else if (ctx_.dirfrag.changed_ever(n->ino())) {
        out.giga_dir = n->ino();
        out.giga_bitmap = 0;
        out.giga_home = kInvalidMds;
      }
    }
    LocationHint h;
    h.ino = n->ino();
    h.authority = a;
    h.replicated_everywhere = tc && is_replicated_everywhere(n->ino());
    out.hints.push_back(h);
  }
}

// --------------------------------------------------------------------------
// Dynamic directory fragmentation
// --------------------------------------------------------------------------

void MdsNode::drop_foreign_dentries(FsNode* dir) {
  // Children-first order is unnecessary here: only direct children of the
  // directory change authority, and any that anchor cached grandchildren
  // must be kept (they fall out as the grandchildren expire). The cache
  // hands over the droppable children whose dentry now hashes elsewhere,
  // in the order a whole-cache scan would have met them.
  const auto* g =
      ctx_.traits.dynamic_dirfrag ? ctx_.dirfrag.find(dir->ino()) : nullptr;
  std::vector<CacheEntry*> victims;
  stats_.foreign_drop_visits += cache_.collect_below(
      dir, MetadataCache::Reach::kChildren, victims,
      [&](const CacheEntry& e) {
        if (!e.authoritative || e.cached_children != 0 || e.pins != 0) {
          return false;
        }
        const MdsId auth =
            g != nullptr
                ? ctx_.dirfrag.dentry_authority(g, e.node->dentry_hash())
                : map_authority(e.node);
        return auth != id_;
      });
  for (CacheEntry* e : victims) cache_.erase(e->node->ino());
}

void MdsNode::maybe_fragment_dir(FsNode* dir, CacheEntry* entry) {
  // Per-op calls pass the directory's cache entry; the heartbeat sweep
  // passes null (giga pair-merges run only on the sweep cadence).
  const bool sweep = entry == nullptr;
  const SimTime now = ctx_.sim.now();
  const MdsParams& P = ctx_.params;
  const double pop = dir_op_temperature(dir->ino(), now);
  // Activity floor: a size trigger must also see real traffic. That lets
  // the cooled test be about temperature alone — a stone-cold directory
  // unhashes no matter how many children it keeps (children don't
  // vanish, so a size term in the merge condition made size-fragmented
  // directories permanent).
  const double floor = P.dirfrag_temp_threshold * kDirfragHysteresis;

  // Only the directory's authority makes these calls.
  if (ctx_.partition.authority_of(dir) != id_) return;

  if (!ctx_.dirfrag.is_fragmented(dir->ino())) {
    const bool too_hot = pop >= P.dirfrag_temp_threshold;
    const bool too_big =
        dir->child_count() >= P.dirfrag_size_threshold && pop >= floor;
    if (!too_big && !too_hot) return;
    // Seed partition 0 with the directory's current op temperature so a
    // just-fragmented hot directory doesn't read as stone-cold on the
    // next sweep and immediately unhash.
    ctx_.dirfrag.fragment(dir->ino(), id_, P.giga_enabled,
                          /*by_size=*/too_big && !too_hot,
                          dir->child_count(), pop, now,
                          P.popularity_half_life);
    broadcast_dirfrag_notify(dir->ino(), /*fragmented=*/true);
    drop_foreign_dentries(dir);
    dirfrag_seen_gen_ = ctx_.dirfrag.generation();
    return;
  }

  const auto* g = ctx_.dirfrag.find(dir->ino());
  if (g == nullptr) return;
  if (g->giga) {
    if (sweep) maybe_merge_partitions(dir);
    return;
  }
  // Legacy all-at-once entry: unhash on temperature, scaled by the
  // trigger that fragmented it (size-fragmented directories need a
  // deeper chill before re-consolidating — the size condition that
  // hashed them still holds, so plain hysteresis would flap).
  const double cooled_at = floor * (g->by_size ? kDirfragHysteresis : 1.0);
  if (pop >= cooled_at) return;
  ctx_.dirfrag.unfragment(dir->ino(), dir->child_count());
  broadcast_dirfrag_notify(dir->ino(), /*fragmented=*/false);
  drop_foreign_dentries(dir);
  dirfrag_seen_gen_ = ctx_.dirfrag.generation();
}

void MdsNode::giga_note_namespace_op(FsNode* dir, const std::string& name,
                                     int delta) {
  if (!ctx_.traits.dynamic_dirfrag) return;
  const InodeId ino = dir->ino();
  if (!ctx_.dirfrag.is_fragmented(ino)) return;
  if (delta > 0) {
    ctx_.dirfrag.note_create(ino, name);
  } else {
    ctx_.dirfrag.note_remove(ino, name);
  }
  ctx_.dirfrag.note_heat(ino, name, ctx_.sim.now());
  if (delta > 0) maybe_split_partition(dir, name);
}

void MdsNode::maybe_split_partition(FsNode* dir, const std::string& name) {
  const SimTime now = ctx_.sim.now();
  const MdsParams& P = ctx_.params;
  const InodeId ino = dir->ino();
  const auto* g = ctx_.dirfrag.find(ino);
  if (g == nullptr || !g->giga) return;

  const std::uint32_t p = giga_partition(giga_name_hash(ino, name), g->bitmap);
  const int d = giga_depth_of(g->bitmap, p);
  if (d >= kGigaMaxDepth) return;

  // A partition splits on the directory-level dirfrag thresholds.
  const double floor = P.dirfrag_temp_threshold * kDirfragHysteresis;
  const double temp = g->temps[p].get(now);
  const bool hot = temp >= P.dirfrag_temp_threshold;
  const bool full = g->counts[p] >= P.dirfrag_size_threshold && temp >= floor;
  if (!hot && !full) return;

  // Exact recount of the one splitting partition: which of its dentries
  // stay and which move to the new child. The walk visits every child of
  // the directory, reading each one's cached name hash, and counts only
  // the splitting partition's; only those change placement, which is the
  // incremental property the bench asserts.
  const std::uint32_t c = p + (1u << d);
  const std::uint64_t next_bitmap = g->bitmap | (std::uint64_t{1} << c);
  std::uint64_t stay = 0;
  std::uint64_t move = 0;
  for (const FsNode* child : dir->children_list()) {
    const std::uint64_t h = child->dentry_hash();
    if (giga_partition(h, g->bitmap) != p) continue;
    if (giga_partition(h, next_bitmap) == c) {
      ++move;
    } else {
      ++stay;
    }
  }
  ctx_.dirfrag.split(ino, p, stay, move, now);
  broadcast_dirfrag_notify(ino, /*fragmented=*/true);
  drop_foreign_dentries(dir);
  dirfrag_seen_gen_ = ctx_.dirfrag.generation();
}

void MdsNode::maybe_merge_partitions(FsNode* dir) {
  const SimTime now = ctx_.sim.now();
  const MdsParams& P = ctx_.params;
  const InodeId ino = dir->ino();
  const auto* g = ctx_.dirfrag.find(ino);
  if (g == nullptr || !g->giga) return;
  const double floor = P.dirfrag_temp_threshold * kDirfragHysteresis;

  if (g->bitmap != 1) {
    // Fold at most one cold leaf back into its parent per sweep (merges
    // reverse one split at a time). Deepest-index first: the partitions
    // a cooling storm created last go first, deterministically.
    for (int c = 63; c > 0; --c) {
      if (((g->bitmap >> c) & 1) == 0) continue;
      const std::uint32_t cp = static_cast<std::uint32_t>(c);
      // A partition with split-off children of its own is not a leaf.
      if (giga_depth_of(g->bitmap, cp) !=
          static_cast<int>(std::bit_width(cp))) {
        continue;
      }
      const std::uint32_t q = cp ^ (1u << (std::bit_width(cp) - 1));
      const double combined = g->temps[q].get(now) + g->temps[cp].get(now);
      if (combined >= floor * kDirfragHysteresis) continue;
      ctx_.dirfrag.merge_pair(ino, q, cp, now);
      broadcast_dirfrag_notify(ino, /*fragmented=*/true);
      drop_foreign_dentries(dir);
      dirfrag_seen_gen_ = ctx_.dirfrag.generation();
      return;
    }
    return;
  }

  // Fully merged back to one partition at home: unhash once cold, with
  // the same trigger-dependent chill as the legacy path.
  const double cooled_at = floor * (g->by_size ? kDirfragHysteresis : 1.0);
  if (ctx_.dirfrag.total_temp(ino, now) >= cooled_at) return;
  ctx_.dirfrag.unfragment(ino);
  broadcast_dirfrag_notify(ino, /*fragmented=*/false);
  drop_foreign_dentries(dir);
  dirfrag_seen_gen_ = ctx_.dirfrag.generation();
}

void MdsNode::broadcast_dirfrag_notify(InodeId dir, bool fragmented) {
  const auto* g = ctx_.dirfrag.find(dir);
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    auto msg = std::make_unique<DirFragNotifyMsg>();
    msg->dir = dir;
    msg->fragmented = fragmented;
    msg->bitmap = g != nullptr ? g->bitmap : 0;
    msg->gen = ctx_.dirfrag.generation();
    ctx_.net.send(id_, peer, std::move(msg));
  }
}

void MdsNode::handle_dirfrag_notify(const DirFragNotifyMsg& m) {
  // Best-effort fast path; the generation carried on heartbeats is what
  // guarantees a peer that missed this message still re-syncs. The
  // seen-generation is deliberately NOT advanced here: a notify covers
  // one directory, while the generation covers all of them, and the
  // redundant re-drop on the next heartbeat is idempotent.
  FsNode* dir = ctx_.tree.by_ino(m.dir);
  if (dir == nullptr) return;
  drop_foreign_dentries(dir);
}

void MdsNode::dirfrag_resync(std::uint64_t peer_gen) {
  if (peer_gen <= dirfrag_seen_gen_) return;
  ++stats_.dirfrag_resyncs;
  for (InodeId ino : ctx_.dirfrag.changes_since(dirfrag_seen_gen_)) {
    FsNode* dir = ctx_.tree.by_ino(ino);
    if (dir != nullptr) drop_foreign_dentries(dir);
  }
  dirfrag_seen_gen_ = ctx_.dirfrag.generation();
}

void MdsNode::send_giga_redirect(const ClientRequestMsg& m, InodeId dir) {
  const auto* g = ctx_.dirfrag.find(dir);
  if (g == nullptr) return;
  auto msg = std::make_unique<GigaRedirectMsg>();
  msg->dir = dir;
  msg->bitmap = g->bitmap;
  msg->home = g->home;
  ++stats_.giga_redirects_sent;
  ctx_.net.send(id_, m.client_addr, std::move(msg));
}

}  // namespace mdsim
