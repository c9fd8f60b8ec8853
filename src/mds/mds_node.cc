#include "mds/mds_node.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

MdsNode::MdsNode(ClusterContext& ctx, MdsId id)
    : ctx_(ctx),
      id_(id),
      cpu_(ctx.sim, "mds" + std::to_string(id) + ".cpu"),
      disk_(ctx.sim, ctx.params.disk, "mds" + std::to_string(id)),
      cache_(ctx.params.cache_capacity,
             /*enforce_tree=*/ctx.traits.path_traversal),
      journal_(ctx.params.journal_capacity,
               [this](InodeId ino) { queue_writeback(ino); }),
      peer_loads_(static_cast<std::size_t>(ctx.num_mds), 0.0),
      peer_alive_(static_cast<std::size_t>(ctx.num_mds), 1),
      peer_last_hb_(static_cast<std::size_t>(ctx.num_mds), 0),
      peer_ack_time_(static_cast<std::size_t>(ctx.num_mds), 0) {
  cache_.set_evict_callback(
      [this](const CacheEntry& e) { on_cache_evict(e); });
  if (ctx.params.overload.enabled && ctx.params.overload.admit_rate > 0.0) {
    admit_bucket_.init(ctx.params.overload.admit_rate,
                       ctx.params.overload.admit_burst, ctx.sim.now());
  }
  // Epoch/lease machinery only applies to explicit subtree delegation.
  subtree_map_ = dynamic_cast<SubtreePartition*>(&ctx.partition);
  if (subtree_map_ != nullptr) view_epoch_ = subtree_map_->epoch();
}

MdsNode::~MdsNode() = default;

void MdsNode::bootstrap() {
  // Every node knows the root (paper section 4.4: "the root directory,
  // which is known to all clients and consequently highly replicated").
  FsNode* root = ctx_.tree.root();
  const bool auth = authority_for(root) == id_;
  CacheEntry* e = cache_.insert(root, InsertKind::kDemand, auth, 0);
  cache_.pin(e);  // the root never leaves the cache
  if (!auth) {
    // Register with the authority directly (bootstrap-time wiring).
    ctx_.nodes[static_cast<std::size_t>(authority_for(root))]
        ->register_replica(root->ino(), id_);
  }
  if (ctx_.traits.load_balancing) start_heartbeat();
  if (ctx_.partition.kind() == StrategyKind::kLazyHybrid &&
      ctx_.lazy != nullptr && id_ == 0) {
    // One node hosts the background drain pump; updates themselves are
    // charged to the affected file's authority.
    lh_drain_tick();
  }
}

MdsId MdsNode::authority_for(const FsNode* node) const {
  // Dynamic directory fragmentation overrides the subtree partition for
  // dentries of fragmented directories (paper section 4.3).
  if (ctx_.traits.dynamic_dirfrag && node->parent() != nullptr) {
    if (const auto* g = ctx_.dirfrag.find(node->parent()->ino())) {
      return ctx_.dirfrag.dentry_authority(g, node->dentry_hash());
    }
  }
  return map_authority(node);
}

MdsId MdsNode::map_authority(const FsNode* node) const {
  // The shared map object models converged cluster knowledge; a node whose
  // view epoch lags (fenced across a partition, or a reconfiguration it
  // has not heard of yet) resolves against the map as of its own epoch.
  if (subtree_map_ != nullptr && view_epoch_ != subtree_map_->epoch()) {
    return subtree_map_->authority_of_at(node, view_epoch_);
  }
  return ctx_.partition.authority_of(node);
}

void MdsNode::charge_cpu(SimTime amount, InlineTask then) {
  cpu_.submit(amount, std::move(then));
}

void MdsNode::charge_cpu(SimTime amount, TraceSpan span, InlineTask then) {
  cpu_.submit(amount, span, std::move(then));
}

// --------------------------------------------------------------------------
// Tier-2 writeback batching (paper section 4.6): entries expiring from the
// bounded journal are flushed to the directory-object store in batches —
// dentries of one directory share B+tree nodes, so a burst of creates
// costs one object write per dirty directory, not one transaction each.
// --------------------------------------------------------------------------

void MdsNode::queue_writeback(InodeId ino) {
  FsNode* node = ctx_.tree.by_ino(ino);
  InodeId dir = kInvalidInode;  // bucket for vanished/rootless items
  if (node != nullptr && node->parent() != nullptr) {
    dir = node->parent()->ino();
  }
  ++writeback_dirs_[dir];
  if (!writeback_flush_scheduled_) {
    writeback_flush_scheduled_ = true;
    ctx_.sim.schedule(from_millis(50), [this]() { flush_writebacks(); });
  }
}

void MdsNode::flush_writebacks() {
  writeback_flush_scheduled_ = false;
  auto dirty = std::move(writeback_dirs_);
  writeback_dirs_.clear();
  for (const auto& [dir, count] : dirty) {
    // One object write per directory; size grows sub-linearly with the
    // number of co-located dirty entries (~16 dentries per tree node).
    const std::uint32_t nodes = 1 + count / 16;
    disk_.write_object(nodes, []() {});
  }
}

// --------------------------------------------------------------------------
// Message dispatch
// --------------------------------------------------------------------------

void MdsNode::on_message(NetAddr from, MessagePtr msg) {
  if (failed_) return;  // dead nodes answer nothing
  switch (msg->type) {
    case MsgType::kClientRequest:
      handle_client_request(std::move(static_cast<ClientRequestMsg&>(*msg)),
                            from);
      break;
    case MsgType::kForwardedRequest: {
      auto& fwd = static_cast<ForwardMsg&>(*msg);
      handle_client_request(std::move(fwd.inner), fwd.inner.client_addr);
      break;
    }
    case MsgType::kReplicaRequest:
      handle_replica_request(from, static_cast<ReplicaRequestMsg&>(*msg));
      break;
    case MsgType::kReplicaGrant:
      handle_replica_grant(from, static_cast<ReplicaGrantMsg&>(*msg));
      break;
    case MsgType::kReplicaDrop:
      handle_replica_drop(from, static_cast<ReplicaDropMsg&>(*msg));
      break;
    case MsgType::kCacheInvalidate:
      handle_invalidate(static_cast<CacheInvalidateMsg&>(*msg));
      break;
    case MsgType::kHeartbeat:
      handle_heartbeat(static_cast<HeartbeatMsg&>(*msg));
      break;
    case MsgType::kMigratePrepare:
      handle_migrate_prepare(from, static_cast<MigratePrepareMsg&>(*msg));
      break;
    case MsgType::kMigrateAck:
      handle_migrate_ack(from, static_cast<MigrateAckMsg&>(*msg));
      break;
    case MsgType::kMigrateCommit:
      handle_migrate_commit(from, static_cast<MigrateCommitMsg&>(*msg));
      break;
    case MsgType::kMigrateAbort:
      handle_migrate_abort(static_cast<MigrateAbortMsg&>(*msg));
      break;
    case MsgType::kLazyHybridUpdate:
      handle_lh_update(static_cast<LazyHybridUpdateMsg&>(*msg));
      break;
    case MsgType::kDirFragNotify:
      handle_dirfrag_notify(static_cast<DirFragNotifyMsg&>(*msg));
      break;
    case MsgType::kAttrDirty:
      handle_attr_dirty(from, static_cast<AttrDirtyMsg&>(*msg));
      break;
    case MsgType::kAttrFlush:
      handle_attr_flush(from, static_cast<AttrFlushMsg&>(*msg));
      break;
    case MsgType::kAttrCallback:
      handle_attr_callback(static_cast<AttrCallbackMsg&>(*msg));
      break;
    default:
      break;  // kClientReply: not addressed to an MDS
  }
}

// --------------------------------------------------------------------------
// Client request path
// --------------------------------------------------------------------------

bool MdsNode::is_duplicate_update(const ClientRequestMsg& msg) {
  // Duplicate-delivery idempotence: a network-duplicated update must not
  // apply twice. Client req_ids are per-client monotone and every retry
  // re-issues under a fresh id, so an id at or below the per-client
  // high-water mark is an exact duplicate of a request this node already
  // accepted — drop it (the original's reply is on its way; reads are
  // naturally idempotent and skip the check).
  if (!op_is_update(msg.op) || msg.client_addr == kInvalidAddr) return false;
  // Local addresses are small and dense (MDS ids, then client ids), so
  // the high-water marks live in a flat vector; only cross-shard global
  // addresses (sparse, rare) fall back to the map.
  std::uint64_t* seen;
  if (!is_shard_global(msg.client_addr)) {
    const auto a = static_cast<std::size_t>(msg.client_addr);
    if (a >= seen_update_req_.size()) seen_update_req_.resize(a + 1, 0);
    seen = &seen_update_req_[a];
  } else {
    seen = &seen_update_req_global_[msg.client_addr];
  }
  if (msg.req_id <= *seen) return true;
  *seen = msg.req_id;
  return false;
}

AdmitVerdict MdsNode::admission_verdict(const ClientRequestMsg& msg) {
  const OverloadParams& ov = ctx_.params.overload;
  const SimTime now = ctx_.sim.now();
  // Dead on arrival: the client's timeout has already fired, its retry is
  // already in flight, and our reply would be discarded as stale. Serving
  // it is the metastable-failure fuel — drop it before it costs anything.
  if (ov.deadline_drop && msg.deadline != 0 && now > msg.deadline) {
    return AdmitVerdict::kShedDeadline;
  }
  // Bounded queues: depth and queued-service-time backlog. The backlog
  // bound is the one that actually limits queueing delay — depth alone
  // undercounts when traversals queue multi-component CPU charges.
  if (cpu_.queue_depth() >= ov.max_cpu_queue_depth ||
      (ov.max_cpu_queue_delay != 0 && cpu_.backlog() > ov.max_cpu_queue_delay)) {
    return AdmitVerdict::kShedQueue;
  }
  if (disk_.store_queue_depth() >= ov.max_disk_queue_depth) {
    return AdmitVerdict::kShedQueue;
  }
  // Token bucket with op-class costs and a fresh-request reserve:
  // retried requests are admitted only from the surplus above the
  // reserve, so a retry storm cannot starve fresh work. First entry
  // only — a forwarded request already paid a token at the node the
  // client contacted; charging it again would tax forwarding itself.
  // The queue bounds above DO apply to forwarded arrivals: they are this
  // node's local backpressure, and without them every peer's bucket
  // funnels admitted work at a hot authority unboundedly.
  if (ov.admit_rate > 0.0 && msg.hops == 0) {
    const double cost = op_is_update(msg.op) ? ov.write_cost : 1.0;
    const double reserve =
        msg.attempt > 0 ? ov.retry_reserve * ov.admit_burst : 0.0;
    if (!admit_bucket_.try_take(cost, reserve, now)) {
      return AdmitVerdict::kShedBucket;
    }
  }
  return AdmitVerdict::kAdmit;
}

void MdsNode::shed_request(const ClientRequestMsg& msg, NetAddr reply_to,
                           AdmitVerdict verdict) {
  switch (verdict) {
    case AdmitVerdict::kShedQueue:
      ++stats_.requests_shed_queue;
      break;
    case AdmitVerdict::kShedBucket:
      ++stats_.requests_shed_admission;
      break;
    case AdmitVerdict::kShedDeadline:
      ++stats_.requests_shed_deadline;
      break;
    case AdmitVerdict::kAdmit:
      return;
  }
  ctx_.faults.note_shed(id_, ctx_.sim.now());
  // A deadline drop answers no one: that client has already timed out and
  // moved on. Queue/bucket sheds get an explicit rejection so the client
  // backs off for `retry_after` instead of burning its timeout. The
  // rejection is the whole point of admission control: it costs no CPU
  // and no queue slot.
  if (verdict == AdmitVerdict::kShedDeadline || reply_to == kInvalidAddr) {
    return;
  }
  const OverloadParams& ov = ctx_.params.overload;
  auto out = std::make_unique<ClientReplyMsg>();
  out->req_id = msg.req_id;
  out->success = false;
  out->rejected = true;
  out->retry_after = ov.retry_after_base + cpu_.backlog();
  out->served_by = id_;
  out->hops = msg.hops;
  out->hedge = msg.hedge;
  out->epoch = view_epoch_;
  ++stats_.rejects_sent;
  ctx_.net.send(id_, reply_to, std::move(out));
}

void MdsNode::admit_client_request(ClientRequestMsg&& msg, NetAddr reply_to) {
  // Close the link segment: client -> here (first hop) or peer -> here.
  trace_mark(msg, msg.hops == 0 ? TraceStage::kNetRequest
                                : TraceStage::kNetForward);
  RequestPtr req = make_request();
  req->msg = std::move(msg);
  req->reply_to = reply_to;
  route(std::move(req));
}

void MdsNode::handle_client_request(ClientRequestMsg&& msg,
                                    NetAddr reply_to) {
  if (is_duplicate_update(msg)) {
    ++stats_.duplicate_updates_dropped;
    return;
  }
  ++stats_.requests_received;
  if (msg.hops == 0) ++stats_.client_requests;
  // Overload gate: every entry point checks deadline + queue bounds;
  // the token bucket inside only charges first entries (hops == 0).
  // Forwarded sheds reply straight to the client (reply_to is already
  // the client for forwarded requests).
  if (ctx_.params.overload.enabled) {
    const AdmitVerdict v = admission_verdict(msg);
    if (v != AdmitVerdict::kAdmit) {
      shed_request(msg, reply_to, v);
      return;
    }
  }
  admit_client_request(std::move(msg), reply_to);
}

void MdsNode::route(RequestPtr req) {
  ClientRequestMsg& m = req->msg;
  req->target = ctx_.tree.by_ino(m.target);
  if (req->target == nullptr) {
    // Target vanished (raced with an unlink) — fail after a cheap check.
    charge_cpu(kCpuForward, cpu_span(req), [this, req]() { fail(req); });
    return;
  }
  if (m.secondary != kInvalidInode) {
    req->secondary = ctx_.tree.by_ino(m.secondary);
    if (req->secondary == nullptr) {
      charge_cpu(kCpuForward, cpu_span(req), [this, req]() { fail(req); });
      return;
    }
  }

  // Authority of the governed item. For namespace ops (create/mkdir/
  // rename-into/link) the governed dentry is (target dir, name): under
  // directory fragmentation its authority hashes by name.
  const FsNode* governed = req->target;
  MdsId auth;
  InodeId giga_gov = kInvalidInode;  // giga-fragmented dir governing this op
  const bool namespace_op = m.op == OpType::kCreate ||
                            m.op == OpType::kMkdir || m.op == OpType::kLink;
  if (namespace_op && ctx_.traits.dynamic_dirfrag &&
      ctx_.dirfrag.is_fragmented(req->target->ino())) {
    auth = ctx_.dirfrag.dentry_authority(req->target->ino(), m.name);
    const auto* g = ctx_.dirfrag.find(req->target->ino());
    if (g != nullptr && g->giga) giga_gov = req->target->ino();
  } else {
    auth = authority_for(governed);
    if (ctx_.traits.dynamic_dirfrag && req->target->parent() != nullptr &&
        ctx_.dirfrag.is_fragmented(req->target->parent()->ino())) {
      const auto* g = ctx_.dirfrag.find(req->target->parent()->ino());
      if (g != nullptr && g->giga) giga_gov = req->target->parent()->ino();
    }
  }

  if (subtree_frozen(req->target)) {
    // Mid-migration: hold the request until the double-commit resolves.
    defer(std::move(req));
    return;
  }

  if (fenced_ && op_is_update(m.op)) {
    // Lease lost: this node may no longer durably order writes — not even
    // absorb them at a replica. Park until the lease renews (the client
    // will usually time out and retry toward the quorum side first).
    // Reads fall through: serving possibly-stale reads is the availability
    // the paper's replication model already accepts.
    park(std::move(req));
    return;
  }

  if (auth != id_) {
    if (giga_gov != kInvalidInode) {
      // Mis-routed dentry op on a giga directory. A zero-hop arrival came
      // straight off the client's stale bitmap: send the correction so
      // its redirect rate decays to zero after the last split. Either way
      // the op still makes progress — forwarded below, or served here
      // once the hop budget is spent (the shared tree makes a local serve
      // correct, just cache-cold).
      if (m.hops == 0 && m.client_addr != kInvalidAddr) {
        send_giga_redirect(m, giga_gov);
      }
      if (m.hops >= kGigaMaxHops) {
        const SimTime cost =
            ctx_.params.cpu_request +
            ctx_.params.cpu_per_component * (req->target->depth() + 1);
        charge_cpu(cost, cpu_span(req), [this, req]() { serve(req); });
        return;
      }
    }
    // Monotone attribute writes can be absorbed at a replica holder and
    // shipped to the authority in batches (GPFS-style, section 4.2).
    if (try_local_attr_update(req)) return;
    // Not ours. A read can be served from a local replica (collaborative
    // caching / traffic control); anything else is forwarded.
    const bool read_op = !op_is_update(m.op);
    if (read_op && cache_.peek(req->target->ino()) != nullptr) {
      const SimTime cost =
          ctx_.params.cpu_request +
          ctx_.params.cpu_per_component * (req->target->depth() + 1);
      charge_cpu(cost, cpu_span(req), [this, req]() { serve(req); });
      return;
    }
    ++stats_.forwards;
    auto fwd = std::make_unique<ForwardMsg>();
    fwd->inner = req->msg;
    ++fwd->inner.hops;
    charge_cpu(kCpuForward, cpu_span(req),
               [this, to = auth, f = std::move(fwd)]() mutable {
                 ctx_.net.send(id_, to, std::move(f));
               });
    return;
  }

  const SimTime cost =
      ctx_.params.cpu_request +
      ctx_.params.cpu_per_component * (req->target->depth() + 1);
  charge_cpu(cost, cpu_span(req), [this, req]() { serve(req); });
}

void MdsNode::serve(RequestPtr req) {
  req->counts_as_served = true;

  // Build the prefix chain. Lazy Hybrid skips traversal entirely unless
  // the target's dual-entry ACL is stale (section 3.1.3): a stale item
  // pays the full scattered traversal once, then is refreshed.
  const bool lh = !ctx_.traits.path_traversal;
  bool need_chain = !lh;
  if (lh && ctx_.lazy != nullptr && ctx_.lazy->is_stale(req->target)) {
    need_chain = true;
    ++stats_.lh_traversal_fixups;
  }
  if (need_chain) {
    req->target->ancestry_into(req->chain);  // root .. target
    if (!op_is_update(req->msg.op)) {
      req->chain.pop_back();  // reads handle the target themselves
    }
    // Updates keep the target in the chain: the authority must have the
    // item resident (fetching it if cold) before serializing the change.
    if (req->secondary != nullptr) {
      // Rename/link: the second directory's prefixes are needed too
      // (appended in root-down order without a temporary vector).
      const std::size_t base = req->chain.size();
      for (FsNode* n = req->secondary; n != nullptr; n = n->parent()) {
        req->chain.push_back(n);
      }
      std::reverse(req->chain.begin() + static_cast<std::ptrdiff_t>(base),
                   req->chain.end());
    }
  } else if (op_is_update(req->msg.op)) {
    // Lazy Hybrid update on a fresh item: no prefix traversal, but the
    // target inode itself must still be resident at its authority.
    req->chain.push_back(req->target);
    if (req->secondary != nullptr) req->chain.push_back(req->secondary);
  }
  req->chain_idx = 0;
  advance_traversal(std::move(req));  // falls through to serve_target
}

void MdsNode::serve_target(RequestPtr req) {
  ClientRequestMsg& m = req->msg;
  // The target (or the secondary dir) may have been unlinked by a racing
  // request while this one sat in the CPU/disk queues.
  if (!ctx_.tree.alive(req->target) ||
      (req->secondary != nullptr && !ctx_.tree.alive(req->secondary))) {
    fail(std::move(req));
    return;
  }
  if (ctx_.lazy != nullptr && !ctx_.traits.path_traversal &&
      ctx_.lazy->is_stale(req->target)) {
    // We just traversed the full path for this stale item: refresh its
    // stored ACL (one journaled update).
    ctx_.lazy->refresh(req->target);
    journal_.append(req->target->ino());
  }

  switch (m.op) {
    case OpType::kStat:
    case OpType::kOpen:
    case OpType::kClose: {
      FsNode* node = req->target;
      CacheEntry* e = cache_.lookup(node->ino(), ctx_.sim.now());
      if (e != nullptr) {
        cache_.mark_demand_access(e);
        // Reads must see the latest size/mtime: call in any deltas
        // absorbed by replica holders first (section 4.2).
        if (e->authoritative && !node->is_dir() &&
            gather_remote_attrs(req)) {
          return;  // resumed when the flushes arrive
        }
        finish(req, true, node->ino());
        return;
      }
      // Reads on another node's behalf only happen when we held a
      // replica at route time; it may have been evicted since — forward.
      if (authority_for(node) != id_) {
        ++stats_.forwards;
        auto fwd = std::make_unique<ForwardMsg>();
        fwd->inner = req->msg;
        ++fwd->inner.hops;
        ctx_.net.send(id_, authority_for(node), std::move(fwd));
        unpin_all(req);
        return;
      }
      fetch_local(
          node, InsertKind::kDemand,
          [this, req, node](CacheEntry* entry) {
            // Initiator: the disk span already tiled the wait, so this
            // adds 0. Coalesced joiner: the whole park is fetch-wait.
            trace_mark(req->msg, TraceStage::kFetchWait);
            finish(req, entry != nullptr, node->ino());
          },
          /*single_item=*/false, disk_span(req));
      return;
    }

    case OpType::kReaddir: {
      FsNode* dir = req->target;
      if (!dir->is_dir()) {
        fail(req);
        return;
      }
      CacheEntry* e = cache_.lookup(dir->ino(), ctx_.sim.now());
      if (e != nullptr) cache_.mark_demand_access(e);
      if (e == nullptr) {
        fetch_local(
            dir, InsertKind::kDemand,
            [this, req](CacheEntry* entry) {
              trace_mark(req->msg, TraceStage::kFetchWait);
              if (entry == nullptr) {
                fail(req);
              } else {
                serve_target(req);  // re-enter with dir resident
              }
            },
            /*single_item=*/false, disk_span(req));
        return;
      }
      if (ctx_.traits.whole_directory_io) {
        if (e->complete) {
          finish(req, true, dir->ino());
          return;
        }
        // One object fetch brings in every dentry + embedded inode.
        const std::uint32_t nodes = ctx_.store.full_fetch_nodes(dir);
        pin_entry(req, e);
        disk_.read_object(nodes, disk_span(req), [this, req, dir]() {
          prefetch_children(dir);
          CacheEntry* de = cache_.peek(dir->ino());
          if (de != nullptr) de->complete = true;
          finish(req, true, dir->ino());
        });
        return;
      }
      // File-granularity strategies: the dentry list is one object, but
      // the inodes are scattered — later stats pay per-inode fetches.
      disk_.read_object(1, disk_span(req), [this, req, dir]() {
        finish(req, true, dir->ino());
      });
      return;
    }

    default:
      apply_update(std::move(req));
      return;
  }
}

// --------------------------------------------------------------------------
// Updates: applied at the authority, journaled, replicas invalidated.
// --------------------------------------------------------------------------

void MdsNode::apply_update(RequestPtr req) {
  ClientRequestMsg& m = req->msg;
  if (fenced_) {
    // Backstop for requests already past route() when the fence dropped
    // (queued behind CPU/disk): nothing is acknowledged without a lease.
    unpin_all(req);
    park(std::move(req));
    return;
  }
  const SimTime now = ctx_.sim.now();
  bool ok = false;
  InodeId result = kInvalidInode;
  InodeId journal_ino = m.target;

  switch (m.op) {
    case OpType::kCreate:
    case OpType::kMkdir: {
      FsNode* dir = req->target;
      if (!dir->is_dir()) break;
      Perms perms;
      perms.uid = m.uid;
      perms.mode = m.op == OpType::kMkdir ? 0755 : 0644;
      FsNode* created = m.op == OpType::kMkdir
                            ? ctx_.tree.mkdir(dir, m.name, perms, now)
                            : ctx_.tree.create_file(dir, m.name, perms, now);
      if (created == nullptr) break;  // EEXIST
      ok = true;
      result = created->ino();
      journal_ino = created->ino();
      ctx_.store.apply_create(
          dir, m.name,
          DirRecord{created->ino(), created->inode().version,
                    created->is_dir()});
      // The new item enters our cache if we also cache its directory
      // (under dirfrag the dentry authority may not hold the dir inode).
      if (cache_.peek(dir->ino()) != nullptr) {
        cache_.insert(created, InsertKind::kDemand, /*authoritative=*/true,
                      now);
      }
      invalidate_replicas(dir->ino(), /*removed=*/false);
      giga_note_namespace_op(dir, m.name, +1);
      break;
    }

    case OpType::kUnlink:
    case OpType::kRmdir: {
      FsNode* node = req->target;
      if (node->is_dir() != (m.op == OpType::kRmdir)) break;
      FsNode* dir = node->parent();
      if (dir == nullptr) break;
      // Drop our cache entry first (it must be childless to unlink —
      // rmdir requires an empty dir; a cached child would block erase).
      CacheEntry* e = cache_.peek(node->ino());
      if (e != nullptr && e->cached_children > 0) break;
      const std::string name = node->name();
      if (!ctx_.tree.remove(node)) break;  // nonempty dir / anchored links
      ok = true;
      result = node->ino();
      cache_.erase(node->ino());
      ctx_.store.apply_remove(dir, name);
      if (node->is_dir()) ctx_.store.drop(node);
      invalidate_replicas(node->ino(), /*removed=*/true);
      invalidate_replicas(dir->ino(), /*removed=*/false);
      giga_note_namespace_op(dir, name, -1);
      break;
    }

    case OpType::kRename: {
      FsNode* node = req->target;
      FsNode* dst = req->secondary;
      if (dst == nullptr || !dst->is_dir()) break;
      FsNode* src_dir = node->parent();
      if (src_dir == nullptr) break;
      const std::string old_name = node->name();
      const bool is_dir = node->is_dir();
      if (!ctx_.tree.rename(node, dst, m.name)) break;
      ok = true;
      result = node->ino();
      // Cached copies stay anchored under the old parent; every cache
      // must still find the node among its new parent's children.
      for (MdsNode* n : ctx_.nodes) n->cache_.note_moved(node->ino());
      ctx_.store.apply_remove(src_dir, old_name);
      ctx_.store.apply_create(
          dst, m.name,
          DirRecord{node->ino(), node->inode().version, node->is_dir()});
      invalidate_replicas(src_dir->ino(), /*removed=*/false);
      invalidate_replicas(dst->ino(), /*removed=*/false);
      giga_note_namespace_op(src_dir, old_name, -1);
      giga_note_namespace_op(dst, m.name, +1);
      if (is_dir) {
        // Every descendant changed position (and, under hashing,
        // location). Anchored links keep resolving through the moved dir.
        std::vector<InodeId> new_chain;
        for (FsNode* a = node->parent(); a != nullptr; a = a->parent()) {
          new_chain.push_back(a->ino());
        }
        ctx_.anchors.on_directory_move(node->ino(), new_chain);
        if (ctx_.lazy != nullptr) {
          ctx_.lazy->invalidate_subtree(node);
        } else {
          // Broadcast: peers drop cached descendants of the moved dir.
          for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
            if (peer == id_) continue;
            auto inv = std::make_unique<CacheInvalidateMsg>();
            inv->ino = node->ino();
            inv->whole_subtree = true;
            inv->epoch = view_epoch_;
            ++stats_.invalidations_sent;
            ctx_.net.send(id_, peer, std::move(inv));
          }
          // ... including ourselves (entries may now belong elsewhere).
          CacheInvalidateMsg self_inv;
          self_inv.ino = node->ino();
          self_inv.whole_subtree = true;
          self_inv.epoch = view_epoch_;
          handle_invalidate(self_inv);
        }
      } else {
        invalidate_replicas(node->ino(), /*removed=*/false);
      }
      break;
    }

    case OpType::kChmod: {
      FsNode* node = req->target;
      Perms p = node->inode().perms;
      p.mode = (p.mode == 0700) ? 0755 : 0700;  // toggle private/world
      ctx_.tree.chmod(node, p, now);
      ok = true;
      result = node->ino();
      invalidate_replicas(node->ino(), /*removed=*/false);
      if (node->is_dir() && ctx_.lazy != nullptr) {
        // LH: the effective ACL of every nested item changed.
        ctx_.lazy->invalidate_subtree(node);
      }
      if (node->parent() != nullptr) {
        ctx_.store.apply_update(
            node->parent(), node->name(),
            DirRecord{node->ino(), node->inode().version, node->is_dir()});
      }
      break;
    }

    case OpType::kSetattr: {
      FsNode* node = req->target;
      ctx_.tree.touch(node, node->inode().size + 1, now);
      ok = true;
      result = node->ino();
      invalidate_replicas(node->ino(), /*removed=*/false);
      if (node->parent() != nullptr) {
        ctx_.store.apply_update(
            node->parent(), node->name(),
            DirRecord{node->ino(), node->inode().version, node->is_dir()});
      }
      break;
    }

    case OpType::kLink: {
      FsNode* target = req->secondary;
      FsNode* dir = req->target;
      if (target == nullptr || target->is_dir() || !dir->is_dir()) break;
      if (!ctx_.tree.link(target, dir, m.name)) break;
      ok = true;
      result = target->ino();
      // Anchor the primary inode so the new remote dentry can find it.
      std::vector<InodeId> chain;
      for (FsNode* a = target->parent(); a != nullptr; a = a->parent()) {
        chain.push_back(a->ino());
      }
      ctx_.anchors.anchor(target->ino(), chain);
      invalidate_replicas(dir->ino(), /*removed=*/false);
      giga_note_namespace_op(dir, m.name, +1);
      break;
    }

    default:
      break;
  }

  if (!ok) {
    fail(req);
    return;
  }

  // The target was a direct request subject, not a mere prefix.
  if (CacheEntry* te = cache_.peek(m.target)) cache_.mark_demand_access(te);

  // Commit to stable storage before replying (the bounded journal).
  journal_.append(journal_ino);
  ++stats_.updates_journaled;
  const InodeId rino = result;
  disk_.journal_append(journal_span(req),
                       [this, req, rino]() { finish(req, true, rino); });
}

// --------------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------------

void MdsNode::finish(RequestPtr req, bool success, InodeId result_ino) {
  if (!success) {
    fail(std::move(req));
    return;
  }
  note_popularity(req);
  reply(std::move(req), true, result_ino);
}

void MdsNode::fail(RequestPtr req) {
  ++stats_.failures;
  reply(std::move(req), false, kInvalidInode);
}

void MdsNode::reply(RequestPtr req, bool success, InodeId result_ino) {
  unpin_all(req);
  auto out = std::make_unique<ClientReplyMsg>();
  out->req_id = req->msg.req_id;
  out->success = success;
  out->served_by = id_;
  out->hops = req->msg.hops;
  out->hedge = req->msg.hedge;
  out->result_ino = result_ino;
  out->epoch = view_epoch_;
  if (success) fill_hints(req, *out);
  ++stats_.replies_sent;
  ctx_.net.send(id_, req->reply_to, std::move(out));
}

void MdsNode::pin_entry(RequestPtr req, CacheEntry* e) {
  cache_.pin(e);
  req->pinned.push_back(e);
}

void MdsNode::unpin_all(RequestPtr req) {
  for (CacheEntry* e : req->pinned) cache_.unpin(e);
  req->pinned.clear();
}

void MdsNode::warm_from_journal(std::vector<InodeId> log, bool own_log) {
  auto items = std::make_shared<std::vector<InodeId>>(std::move(log));
  const std::uint32_t log_nodes =
      1 + static_cast<std::uint32_t>(items->size() / 16);
  disk_.read_object(log_nodes, [this, items, own_log]() {
    if (own_log) {
      // A coalesced tier-2 write per dirty directory (shared B+tree
      // nodes, as in the normal writeback path).
      std::unordered_map<InodeId, std::uint32_t> dirty;
      for (InodeId ino : *items) {
        FsNode* n = ctx_.tree.by_ino(ino);
        InodeId dir = kInvalidInode;
        if (n != nullptr && n->parent() != nullptr) dir = n->parent()->ino();
        ++dirty[dir];
      }
      for (const auto& [dir, count] : dirty) {
        disk_.write_object(1 + count / 16, []() {});
      }
    }
    const SimTime cpu = kCpuMigratePerItem * items->size();
    charge_cpu(cpu, [this, items, own_log]() {
      std::uint64_t installed = 0;
      for (InodeId ino : *items) {
        FsNode* n = ctx_.tree.by_ino(ino);
        if (n == nullptr) continue;
        if (authority_for(n) != id_) continue;  // not ours post-failover
        cache_insert_anchored(n, InsertKind::kDemand, /*authoritative=*/true);
        ++installed;
      }
      if (!own_log) {
        stats_.takeover_warm_items += installed;
        return;
      }
      stats_.restart_replayed_items += installed;
      recovering_ = false;
      ctx_.faults.note_rejoin(id_, ctx_.sim.now());
    });
  });
}

void MdsNode::clear_cache_for_rejoin() {
  // Evict everything evictable; the pinned root (and anything anchoring
  // it) survives. The squeeze respects the cache tree invariant.
  const std::size_t cap = cache_.capacity();
  cache_.set_capacity(1);
  cache_.set_capacity(cap);
  // Coherence and traffic-control sidecar state is void after the outage
  // (the node missed invalidations); pending attr deltas survive — the
  // periodic flush still owes them to the authorities.
  cache_.for_each_aux([this](InodeId ino, EntryAux& a) {
    a.replica_holders.clear();
    a.replicated_everywhere = false;
    a.has_dir_temp = false;
    a.dir_op_temp = DecayCounter();
    cache_.aux_gc(ino);
  });
  subtree_load_.clear();
  // Any protocol state from before the outage is void; the clients whose
  // requests died here have long since timed out and retried.
  frozen_.clear();
  deferred_.clear();
  outbound_.reset();
  inbound_.reset();
  replica_fetch_deadline_.clear();
  attr_waiters_.clear();
  cache_.clear_fetch_waiters();
  parked_.clear();
  pending_takeover_.clear();
  seen_update_req_.assign(seen_update_req_.size(), 0);
  seen_update_req_global_.clear();
  inbound_done_.clear();
}

void MdsNode::park(RequestPtr req) {
  ++stats_.writes_parked_fenced;
  parked_.push_back(std::move(req));
}

bool MdsNode::migrate_subtree(FsNode* root, MdsId target) {
  if (outbound_ != nullptr || target == id_ || root == nullptr) return false;
  if (authority_for(root) != id_) return false;
  begin_migration(root, target);
  return outbound_ != nullptr;
}

std::size_t MdsNode::replica_holders(InodeId ino) const {
  const EntryAux* a = cache_.aux_peek(ino);
  return a == nullptr ? 0 : a->replica_holders.size();
}

}  // namespace mdsim
