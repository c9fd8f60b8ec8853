// Path traversal engine: walks a request's prefix chain, filling cache
// misses from local disk (when this node is the authority) or from peers
// (replica fetches), with coalescing so concurrent misses on the same
// inode share one fetch. Also implements the replica request/grant
// protocol and the Lazy Hybrid background drain.
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

void MdsNode::advance_traversal(RequestPtr req) {
  const SimTime now = ctx_.sim.now();
  while (req->chain_idx < req->chain.size()) {
    FsNode* node = req->chain[req->chain_idx];
    CacheEntry* e = cache_.lookup(node->ino(), now);
    if (e != nullptr) {
      // POSIX semantics: the requesting user must be able to traverse
      // every ancestor directory (paper section 4.1).
      if (node->is_dir() &&
          !node->inode().perms.allows_traverse(req->msg.uid)) {
        fail(std::move(req));
        return;
      }
      ++req->chain_idx;
      continue;
    }
    const MdsId auth = authority_for(node);
    // Local miss: the initiating request's disk span tiles the wait, and
    // a coalesced joiner charges the whole park to fetch-wait at resume.
    // Remote miss: the entire request->grant round trip (including any
    // paging at the authority) is replica-wait.
    const TraceStage wait_stage = auth == id_ ? TraceStage::kFetchWait
                                              : TraceStage::kReplicaWait;
    auto resume = [this, req, wait_stage](CacheEntry* entry) {
      trace_mark(req->msg, wait_stage);
      if (entry == nullptr) {
        fail(req);
        return;
      }
      advance_traversal(req);
    };
    if (auth == id_) {
      fetch_local(node, InsertKind::kPrefix, std::move(resume),
                  /*single_item=*/false, disk_span(req));
    } else {
      fetch_replica(node, auth, InsertKind::kPrefix, std::move(resume));
    }
    return;  // resumed by the fetch completion
  }
  serve_target(std::move(req));
}

std::uint32_t MdsNode::fetch_cost_nodes(FsNode* node) {
  if (!ctx_.traits.whole_directory_io) return 1;  // one scattered inode
  FsNode* dir = node->parent() != nullptr ? node->parent() : node;
  const std::uint32_t full = ctx_.store.full_fetch_nodes(dir);
  if (ctx_.traits.dynamic_dirfrag && ctx_.dirfrag.is_fragmented(dir->ino())) {
    // A fragmented directory is split into fragment objects; each node
    // only reads its own shard. GIGA+ entries know the exact per-node
    // dentry share (round-robin partitions of unequal sizes); legacy
    // all-at-once hashing stays the even 1/num_mds split it always was.
    const auto* g = ctx_.dirfrag.find(dir->ino());
    if (g != nullptr && g->giga) {
      const double share = ctx_.dirfrag.shard_fraction(dir->ino(), id_);
      return std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(static_cast<double>(full) * share));
    }
    return std::max<std::uint32_t>(
        1, full / static_cast<std::uint32_t>(ctx_.num_mds));
  }
  return full;
}

void MdsNode::prefetch_children(FsNode* dir) {
  if (!ctx_.traits.whole_directory_io) return;
  if (cache_.peek(dir->ino()) == nullptr) return;  // parent must anchor
  const SimTime now = ctx_.sim.now();
  for (FsNode* c : dir->children_list()) {
    if (cache_.peek(c->ino()) != nullptr) continue;
    if (authority_for(c) != id_) continue;  // not ours to cache
    cache_.insert(c, InsertKind::kPrefetch, /*authoritative=*/true, now);
  }
}

CacheEntry* MdsNode::cache_insert_anchored(FsNode* node, InsertKind kind,
                                           bool authoritative) {
  const SimTime now = ctx_.sim.now();
  if (ctx_.traits.path_traversal && node->parent() != nullptr) {
    static thread_local std::vector<FsNode*> chain;
    node->ancestry_into(chain);
    chain.pop_back();
    for (FsNode* a : chain) {
      if (cache_.peek(a->ino()) != nullptr) continue;
      const MdsId auth = authority_for(a);
      cache_.insert(a, InsertKind::kPrefix, auth == id_, now);
      if (auth != id_) {
        ctx_.nodes[static_cast<std::size_t>(auth)]->register_replica(
            a->ino(), id_);
      }
    }
  }
  return cache_.insert(node, kind, authoritative, now);
}

void MdsNode::fetch_local(FsNode* node, InsertKind kind,
                          std::function<void(CacheEntry*)> done,
                          bool single_item, TraceSpan span) {
  const SimTime now = ctx_.sim.now();
  // Uncounted lookup (not a client-visible cache probe) so serving
  // replica grants keeps the underlying items LRU-warm: a prefix the
  // whole cluster keeps asking for must not age out at its authority.
  if (CacheEntry* e = cache_.lookup(node->ino(), now, /*count_stats=*/false)) {
    if (kind == InsertKind::kDemand) {
      cache_.insert(node, kind, e->authoritative, now);  // upgrade
    }
    done(e);
    return;
  }
  const InodeId ino = node->ino();
  const bool first =
      cache_.add_fetch_waiter(ino, FetchChannel::kDisk, std::move(done));
  if (!first) return;  // coalesced with an in-flight fetch

  std::uint32_t nodes;
  if (single_item && node->parent() != nullptr) {
    // One dentry: a root-to-leaf B+tree lookup in the parent's object.
    nodes = ctx_.store.lookup_nodes(node->parent(), node->name());
  } else {
    nodes = fetch_cost_nodes(node);
  }
  const bool prefetch = !single_item;
  // Only the first waiter reaches here, so `span` is the initiator's:
  // its disk queue/service time rides the shared read; joiners attribute
  // their park to fetch-wait when resumed below.
  disk_.read_object(nodes, span, [this, ino, kind, prefetch]() {
    auto waiters = cache_.take_fetch_waiters(ino, FetchChannel::kDisk);

    FsNode* node = ctx_.tree.by_ino(ino);
    if (node != nullptr) {
      cache_insert_anchored(node, kind, /*authoritative=*/true);
      // Embedded inodes: the whole directory came along for free.
      if (prefetch && ctx_.traits.whole_directory_io &&
          node->parent() != nullptr) {
        prefetch_children(node->parent());
      }
    }
    // Re-peek per waiter: an earlier waiter's continuation may insert
    // other items and evict the entry (or the whole node may vanish).
    for (auto& w : waiters) {
      w(node != nullptr ? cache_.peek(ino) : nullptr);
    }
  });
}

void MdsNode::fetch_replica(FsNode* node, MdsId auth, InsertKind kind,
                            std::function<void(CacheEntry*)> done) {
  (void)kind;  // replicas of prefixes always enter as kPrefix on grant
  if (CacheEntry* e = cache_.peek(node->ino())) {
    done(e);
    return;
  }
  const InodeId ino = node->ino();
  const bool first =
      cache_.add_fetch_waiter(ino, FetchChannel::kReplica, std::move(done));
  if (!first) return;  // coalesced with an in-flight request

  // Heartbeat-swept give-up deadline: if the grant is lost (dropped
  // message, authority died) the waiters fail instead of coalescing
  // behind a request that will never complete.
  replica_fetch_deadline_[ino] = ctx_.sim.now() + kReplicaFetchTimeout;

  ++stats_.replica_requests_sent;
  auto msg = std::make_unique<ReplicaRequestMsg>();
  msg->ino = ino;
  msg->xid = next_xid_++;
  ctx_.net.send(id_, auth, std::move(msg));
}

void MdsNode::handle_replica_request(NetAddr from, const ReplicaRequestMsg& m) {
  const InodeId ino = m.ino;
  const MdsId requester = from;  // MDS addresses == ids
  charge_cpu(kCpuReplica, [this, ino, requester]() {
    FsNode* node = ctx_.tree.by_ino(ino);
    auto grant = [this, ino, requester](CacheEntry* entry) {
      auto g = std::make_unique<ReplicaGrantMsg>();
      g->ino = ino;
      // The entry pointer may have been invalidated by intervening cache
      // churn; the grant payload comes from the ground truth anyway.
      FsNode* node = ctx_.tree.by_ino(ino);
      if (entry != nullptr && node != nullptr) {
        register_replica(ino, requester);
        g->version = node->inode().version;
      } else {
        g->version = 0;  // vanished; requester fails its op
      }
      ++stats_.replica_grants;
      ctx_.net.send(id_, requester, std::move(g));
    };
    if (node == nullptr) {
      grant(nullptr);
      return;
    }
    // The authority itself may need to page the item (and its own prefix
    // chain) in before granting.
    insert_with_prefixes(node, InsertKind::kDemand, /*authoritative=*/true,
                         /*have_payload=*/false, std::move(grant));
  });
}

void MdsNode::handle_replica_grant(NetAddr from, const ReplicaGrantMsg& m) {
  (void)from;
  const InodeId ino = m.ino;
  FsNode* node = m.version != 0 ? ctx_.tree.by_ino(ino) : nullptr;

  if (m.unsolicited) {
    // Traffic control push: the grant carries the popular item AND its
    // prefix chain (the pusher had them all in cache), so installation
    // needs no round trips — crucially, none through the very node the
    // crowd is saturating. cache_insert_anchored installs the missing
    // ancestors as registered replicas directly.
    if (node != nullptr) {
      cache_insert_anchored(node, InsertKind::kDemand,
                            /*authoritative=*/false);
      cache_.aux_ensure(ino).replicated_everywhere = true;
    }
    return;
  }

  replica_fetch_deadline_.erase(ino);
  auto waiters = cache_.take_fetch_waiters(ino, FetchChannel::kReplica);
  if (waiters.empty()) return;  // raced with invalidation

  if (node == nullptr) {
    for (auto& w : waiters) w(nullptr);
    return;
  }
  insert_with_prefixes(
      node, InsertKind::kPrefix, /*authoritative=*/false,
      /*have_payload=*/true,
      [this, ino, waiters = std::move(waiters)](CacheEntry* e) {
        // Re-peek per waiter (see fetch_local): continuations may churn
        // the cache under each other.
        for (auto& w : waiters) {
          w(e != nullptr ? cache_.peek(ino) : nullptr);
        }
      });
}

void MdsNode::insert_with_prefixes(FsNode* node, InsertKind kind,
                                   bool authoritative, bool have_payload,
                                   std::function<void(CacheEntry*)> done) {
  const SimTime now = ctx_.sim.now();
  if (!ctx_.traits.path_traversal) {
    // Lazy Hybrid caches items free-standing (no prefix chain).
    if (have_payload || cache_.peek(node->ino()) != nullptr) {
      done(cache_.insert(node, kind, authoritative, now));
    } else {
      fetch_local(node, kind, std::move(done));
    }
    return;
  }

  // Walk root -> node, filling the first missing item each step. The op
  // is shared by the continuations parked across async fetches and frees
  // when the last reference drops — including when a simulation ends (or
  // a rejoin clears the waiter lists) with the walk still stalled.
  struct PrefixWalkOp {
    MdsNode* self;
    FsNode* node;
    InsertKind kind;
    bool authoritative;
    bool have_payload;
    std::function<void(CacheEntry*)> done;
    std::vector<FsNode*> chain;
    std::size_t idx = 0;

    void finish(CacheEntry* e) { done(e); }

    void step(const std::shared_ptr<PrefixWalkOp>& op) {
      while (idx < chain.size()) {
        FsNode* cur = chain[idx];
        const bool is_target = cur == node;
        if (self->cache_.lookup(cur->ino(), self->ctx_.sim.now(),
                                /*count_stats=*/false) != nullptr) {
          if (is_target) {
            // Refresh semantics (upgrade prefix -> demand etc.).
            finish(self->cache_insert_anchored(node, kind, authoritative));
            return;
          }
          ++idx;
          continue;
        }
        if (is_target && have_payload) {
          // The item's bits arrived over the wire: no I/O for the item
          // itself; its (now resident) prefix chain anchors it.
          finish(self->cache_insert_anchored(node, kind, authoritative));
          return;
        }
        const InsertKind k = is_target ? kind : InsertKind::kPrefix;
        const MdsId auth = self->authority_for(cur);
        auto resume = [op, is_target](CacheEntry* e) {
          if (e == nullptr) {
            op->finish(nullptr);
            return;
          }
          if (is_target) {
            op->finish(e);
            return;
          }
          ++op->idx;
          op->step(op);
        };
        if (auth == self->id_) {
          // Grant/installation path: read the one dentry, not the whole
          // directory (no locality to exploit on another node's behalf).
          self->fetch_local(cur, k, std::move(resume),
                            /*single_item=*/true);
        } else {
          self->fetch_replica(cur, auth, k, std::move(resume));
        }
        return;  // resumed by the fetch completion
      }
      finish(self->cache_.peek(node->ino()));
    }
  };

  auto op = std::make_shared<PrefixWalkOp>(
      PrefixWalkOp{this, node, kind, authoritative, have_payload,
                   std::move(done), node->ancestry(), 0});
  op->step(op);
}

// --------------------------------------------------------------------------
// Lazy Hybrid background propagation
// --------------------------------------------------------------------------

void MdsNode::lh_drain_tick() {
  assert(ctx_.lazy != nullptr);
  const MdsParams& P = ctx_.params;
  lh_drain_carry_ += P.lh_drain_rate * to_seconds(kLhDrainTickPeriod);
  int budget = static_cast<int>(lh_drain_carry_);
  lh_drain_carry_ -= budget;
  while (budget-- > 0) {
    FsNode* f = ctx_.lazy->drain_one();
    if (f == nullptr) break;
    // One network trip per affected file: notify its authority, which
    // journals the refreshed ACL/location.
    const MdsId auth = authority_for(f);
    auto msg = std::make_unique<LazyHybridUpdateMsg>();
    msg->ino = f->ino();
    ctx_.net.send(id_, auth, std::move(msg));
  }
  ctx_.sim.schedule(kLhDrainTickPeriod, [this]() { lh_drain_tick(); });
}

void MdsNode::handle_lh_update(const LazyHybridUpdateMsg& m) {
  const InodeId ino = m.ino;
  charge_cpu(kCpuReplica, [this, ino]() {
    journal_.append(ino);
    disk_.journal_append([]() {});
  });
}

}  // namespace mdsim
