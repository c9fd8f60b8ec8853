// GPFS-style distributed attribute updates (paper section 4.2):
//
//   "fields like modification time and file size are monotonically
//    increasing for most operations, such that replicas serving
//    concurrent writers can periodically send their most recent value to
//    the authority, which retains the maximum value seen thus far and
//    initiates a callback for the latest information on client reads."
//
// Replica side: a setattr on a locally held file replica is absorbed into
// a pending delta (local journal commit, immediate client reply). The
// first absorbed write sends one AttrDirty notice to the authority; a
// periodic tick (or an authority callback / an invalidation) flushes the
// accumulated deltas.
//
// Authority side: AttrDirty marks the inode remote-dirty; a client read
// (stat/open) of a remote-dirty inode first calls the deltas in from all
// dirty holders, then serves. AttrFlush applies the deltas (one journaled
// update covering the batch — the whole point of the scheme).
#include <algorithm>
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

bool MdsNode::try_local_attr_update(RequestPtr req) {
  const MdsParams& P = ctx_.params;
  if (!P.distributed_attr_updates) return false;
  if (req->msg.op != OpType::kSetattr) return false;
  if (req->target->is_dir()) return false;
  CacheEntry* e = cache_.peek(req->target->ino());
  if (e == nullptr || e->authoritative) return false;

  const SimTime cost = P.cpu_request;
  charge_cpu(cost, cpu_span(req), [this, req]() {
    CacheEntry* e = cache_.peek(req->target->ino());
    if (e == nullptr || e->authoritative ||
        !ctx_.tree.alive(req->target)) {
      // Replica vanished while queued: fall back to the normal path.
      route(req);
      return;
    }
    req->counts_as_served = true;
    const InodeId ino = req->target->ino();
    EntryAux& a = cache_.aux_ensure(ino);
    const bool first_write = a.attr_pending == 0;
    ++a.attr_pending;
    ++stats_.attr_local_updates;
    if (first_write) {
      auto dirty = std::make_unique<AttrDirtyMsg>();
      dirty->ino = ino;
      ctx_.net.send(id_, authority_for(req->target), std::move(dirty));
      schedule_attr_flush();
    }
    cache_.lookup(ino, ctx_.sim.now(), /*count_stats=*/false);  // keep warm
    // Local write-ahead commit, then reply — no cross-cluster round trip.
    journal_.append(ino);
    disk_.journal_append(journal_span(req), [this, req]() {
      finish(req, true, req->msg.target);
    });
  });
  return true;
}

void MdsNode::schedule_attr_flush() {
  if (attr_flush_scheduled_) return;
  attr_flush_scheduled_ = true;
  ctx_.sim.schedule(ctx_.params.attr_flush_period,
                    [this]() { flush_attr_updates(); });
}

void MdsNode::flush_attr_updates() {
  attr_flush_scheduled_ = false;
  // Collect-then-send: zeroing the counts (and gc'ing drained records)
  // first keeps the sidecar sweep safe against anything the sends recurse
  // into.
  std::vector<std::pair<InodeId, std::uint32_t>> pending;
  cache_.for_each_aux([&](InodeId ino, EntryAux& a) {
    if (a.attr_pending == 0) return;
    pending.emplace_back(ino, a.attr_pending);
    a.attr_pending = 0;
    cache_.aux_gc(ino);
  });
  if (failed_) return;
  for (const auto& [ino, count] : pending) {
    FsNode* node = ctx_.tree.by_ino(ino);
    if (node == nullptr || count == 0) continue;
    auto flush = std::make_unique<AttrFlushMsg>();
    flush->ino = ino;
    flush->updates = count;
    ctx_.net.send(id_, authority_for(node), std::move(flush));
  }
}

void MdsNode::flush_attr_updates_for(InodeId ino) {
  EntryAux* a = cache_.aux_peek(ino);
  if (a == nullptr || a->attr_pending == 0) return;
  const std::uint32_t count = a->attr_pending;
  a->attr_pending = 0;
  cache_.aux_gc(ino);
  FsNode* node = ctx_.tree.by_ino(ino);
  if (node == nullptr || count == 0) return;
  auto flush = std::make_unique<AttrFlushMsg>();
  flush->ino = ino;
  flush->updates = count;
  ctx_.net.send(id_, authority_for(node), std::move(flush));
}

void MdsNode::handle_attr_dirty(NetAddr from, const AttrDirtyMsg& m) {
  EntryAux& a = cache_.aux_ensure(m.ino);
  if (!std::count(a.attr_dirty_holders.begin(), a.attr_dirty_holders.end(),
                  from)) {
    a.attr_dirty_holders.push_back(from);
  }
}

void MdsNode::handle_attr_flush(NetAddr from, const AttrFlushMsg& m) {
  charge_cpu(kCpuReplica, [this, from, ino = m.ino, updates = m.updates]() {
    FsNode* node = ctx_.tree.by_ino(ino);
    if (node != nullptr) {
      // Apply the batch as one update: the authority keeps the max.
      ctx_.tree.touch(node, node->inode().size + updates, ctx_.sim.now());
      journal_.append(ino);
      ++stats_.attr_flushes_applied;
      // Note: replicas of the inode elsewhere still hold monotone-stale
      // attributes, which this scheme tolerates by design; they are NOT
      // invalidated here (that would defeat the batching).
    }
    if (EntryAux* a = cache_.aux_peek(ino)) {
      auto& holders = a->attr_dirty_holders;
      auto hit = std::find(holders.begin(), holders.end(), from);
      if (hit != holders.end()) {
        holders.erase(hit);
        if (holders.empty()) {
          cache_.aux_gc(ino);
          resume_attr_waiters(ino);
        }
      }
    }
  });
}

void MdsNode::handle_attr_callback(const AttrCallbackMsg& m) {
  // The authority wants our deltas now (a client is reading).
  flush_attr_updates_for(m.ino);
}

bool MdsNode::gather_remote_attrs(RequestPtr req) {
  if (!ctx_.params.distributed_attr_updates) return false;
  const InodeId ino = req->target->ino();
  EntryAux* a = cache_.aux_peek(ino);
  if (a == nullptr || a->attr_dirty_holders.empty()) return false;

  // Drop holders that died; their deltas are lost with them.
  auto& holders = a->attr_dirty_holders;
  holders.erase(std::remove_if(holders.begin(), holders.end(),
                               [&](MdsId h) { return ctx_.net.is_down(h); }),
                holders.end());
  if (holders.empty()) {
    cache_.aux_gc(ino);
    return false;
  }
  for (MdsId holder : holders) {
    auto cb = std::make_unique<AttrCallbackMsg>();
    cb->ino = ino;
    ctx_.net.send(id_, holder, std::move(cb));
  }
  ++stats_.attr_callbacks;
  auto& gather = attr_waiters_[ino];
  if (gather.reqs.empty()) gather.since = ctx_.sim.now();
  gather.reqs.push_back(std::move(req));
  return true;  // the read resumes when every holder has flushed
}

void MdsNode::resume_attr_waiters(InodeId ino) {
  auto it = attr_waiters_.find(ino);
  if (it == attr_waiters_.end()) return;
  auto waiters = std::move(it->second.reqs);
  attr_waiters_.erase(it);
  for (auto& req : waiters) {
    // Parked since gather_remote_attrs: the delta call-in round trip
    // (including the holders' flush processing) is a stall.
    trace_mark(req->msg, TraceStage::kStallWait);
    if (!ctx_.tree.alive(req->target)) {
      fail(std::move(req));
      continue;
    }
    finish(std::move(req), true, ino);
  }
}

}  // namespace mdsim
