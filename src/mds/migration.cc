// Double-commit subtree migration (paper section 4.3): "busy nodes can
// identify portions of the hierarchy that are appropriately popular and
// initiate a double-commit transaction to transfer authority to non-busy
// nodes. During this exchange all active state and cached metadata are
// transferred to the newly authoritative node ... to avoid the disk I/O
// that would otherwise be required."
//
// Protocol: exporter journals its intent and freezes the subtree
// (requests defer), sends Prepare with the cached item set; the importer
// records the inbound transaction, installs the state (anchoring the
// subtree root's prefix inodes first) and Acks; the exporter flips the
// partition map (THE commit point), journals completion, drops its
// copies, flushes deferred requests, and Commits to the importer.
//
// Crash consistency: either side dying at any step leaves exactly one
// authority. Before the partition flip the exporter never stopped being
// the authority — an exporter timeout/death aborts and the importer rolls
// its installed copy back. After the flip the importer owns the subtree
// whether or not the Commit arrives — an importer that stops hearing from
// the exporter consults the shared partition map (the cluster's ground
// truth, per the paper's "all metadata servers converge on the partition")
// and either finalizes or rolls back accordingly. Deadlines are swept by
// the heartbeat tick (failure_tick), so no timer events exist in healthy
// runs.
#include <algorithm>
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

bool MdsNode::subtree_frozen(const FsNode* node) const {
  if (frozen_.empty()) return false;
  for (const FsNode* n = node; n != nullptr; n = n->parent()) {
    if (frozen_.count(n->ino()) != 0) return true;
  }
  return false;
}

void MdsNode::defer(RequestPtr req) { deferred_.push_back(std::move(req)); }

void MdsNode::flush_deferred() {
  std::deque<RequestPtr> pending;
  pending.swap(deferred_);
  for (auto& req : pending) {
    // The whole freeze window was spent stalled behind the migration.
    trace_mark(req->msg, TraceStage::kStallWait);
    // Re-route: the partition changed, so these will typically forward.
    route(std::move(req));
  }
}

void MdsNode::begin_migration(FsNode* root, MdsId target,
                              std::vector<FsNode*> extra_roots) {
  assert(outbound_ == nullptr);
  if (fenced_) return;  // no lease, no authority transfers
  // Collect cached authoritative state under the batch's subtrees, parents
  // first so the importer's inserts respect its cache tree invariant.
  // (Ordinary balancing ships one subtree; a self-degraded volunteer rides
  // several non-overlapping roots on the same transaction so the intent
  // append below — queued on the very disk that made it sick — is paid
  // once per batch.) The cache lists each root's entry and everything
  // below it in scan order, without repeats from overlapping roots, so
  // the unstable depth sort — and with it the importer's insert order —
  // is what a whole-cache scan would give.
  std::vector<CacheEntry*> collected;
  const auto authoritative = [](const CacheEntry& e) {
    return e.authoritative;
  };
  auto gather = [&](const FsNode* r) {
    CacheEntry* e = cache_.peek(r->ino());
    if (e != nullptr && e->authoritative) collected.push_back(e);
    cache_.collect_below(r, MetadataCache::Reach::kSubtree, collected,
                         authoritative);
  };
  gather(root);
  for (FsNode* r : extra_roots) gather(r);
  if (collected.size() < ctx_.params.min_migration_items) return;
  std::sort(collected.begin(), collected.end(),
            [](const CacheEntry* a, const CacheEntry* b) {
              return a->node->depth() < b->node->depth();
            });

  outbound_ = std::make_unique<OutboundMigration>();
  outbound_->id = next_migration_id_++;
  outbound_->root = root->ino();
  for (FsNode* r : extra_roots) outbound_->extra_roots.push_back(r->ino());
  outbound_->target = target;
  outbound_->deadline = ctx_.sim.now() + kMigrationTimeout;
  outbound_->items.reserve(collected.size());
  for (CacheEntry* e : collected) outbound_->items.push_back(e->node->ino());

  frozen_.insert(root->ino());
  for (FsNode* r : extra_roots) frozen_.insert(r->ino());

  auto msg = std::make_unique<MigratePrepareMsg>();
  msg->migration_id = outbound_->id;
  msg->subtree_root = outbound_->root;
  msg->extra_roots = outbound_->extra_roots;
  msg->epoch = view_epoch_;
  msg->items = outbound_->items;
  msg->size_bytes =
      static_cast<std::uint32_t>(64 + 48 * outbound_->items.size());

  // Journal the migration intent before anything leaves this node, so a
  // restart replays a record of the half-open transaction (the bounded
  // log is on shared storage; survivors resolve against the partition
  // map, which only flips at the commit point below).
  const std::uint64_t mig_id = outbound_->id;
  journal_.append(outbound_->root);
  for (InodeId r : outbound_->extra_roots) journal_.append(r);
  const MdsId target_copy = target;
  disk_.journal_append([this, mig_id, target_copy, m = std::move(msg)]() mutable {
    if (outbound_ == nullptr || outbound_->id != mig_id) return;  // aborted
    const SimTime pack_cost = kCpuMigratePerItem * outbound_->items.size();
    charge_cpu(pack_cost, [this, mig_id, target_copy, m = std::move(m)]() mutable {
      if (outbound_ == nullptr || outbound_->id != mig_id) return;
      ctx_.net.send(id_, target_copy, std::move(m));
    });
  });
}

void MdsNode::send_migrate_ack(MdsId exporter, std::uint64_t mig_id,
                               bool accepted) {
  auto ack = std::make_unique<MigrateAckMsg>();
  ack->migration_id = mig_id;
  ack->accepted = accepted;
  ack->epoch = view_epoch_;
  ctx_.net.send(id_, exporter, std::move(ack));
}

void MdsNode::refuse_inbound() {
  const MdsId exporter = inbound_->exporter;
  const std::uint64_t mig_id = inbound_->id;
  inbound_done_[exporter] = std::max(inbound_done_[exporter], mig_id);
  inbound_.reset();
  send_migrate_ack(exporter, mig_id, /*accepted=*/false);
}

void MdsNode::handle_migrate_prepare(NetAddr from, const MigratePrepareMsg& m) {
  const MdsId exporter = from;
  const std::uint64_t mig_id = m.migration_id;

  if (m.epoch < view_epoch_) {
    // Proposed under a superseded regime (the exporter was fenced across a
    // reconfiguration, or the prepare crossed an epoch bump in flight).
    // Refusing is always safe: the map has not flipped for this id.
    ++stats_.stale_epoch_rejects;
    send_migrate_ack(exporter, mig_id, /*accepted=*/false);
    return;
  }
  if (fenced_) {  // cannot accept authority without a lease
    send_migrate_ack(exporter, mig_id, /*accepted=*/false);
    return;
  }
  if (inbound_ != nullptr) {
    if (inbound_->id == mig_id && inbound_->exporter == exporter) {
      return;  // duplicate prepare (network duplication); already installing
    }
    // One inbound transaction at a time.
    send_migrate_ack(exporter, mig_id, /*accepted=*/false);
    return;
  }
  if (auto it = inbound_done_.find(exporter);
      it != inbound_done_.end() && mig_id <= it->second) {
    // Duplicate of a migration already resolved (committed or rolled
    // back). Re-installing would double-flip state; drop it — the
    // exporter's side of id `mig_id` is long settled.
    ++stats_.duplicate_prepares_dropped;
    return;
  }

  // Record the transaction before the (time-consuming) unpack, so a
  // watchdog or exporter-death during install resolves it instead of
  // leaking half the state.
  inbound_ = std::make_unique<InboundMigration>();
  inbound_->id = mig_id;
  inbound_->exporter = exporter;
  inbound_->root = m.subtree_root;
  inbound_->extra_roots = m.extra_roots;
  inbound_->items = m.items;
  inbound_->deadline = ctx_.sim.now() + kMigrationTimeout;

  auto items = std::make_shared<std::vector<InodeId>>(m.items);
  const InodeId root_ino = m.subtree_root;

  const SimTime unpack_cost = kCpuMigratePerItem * items->size();
  charge_cpu(unpack_cost, [this, mig_id, root_ino, items]() {
    if (inbound_ == nullptr || inbound_->id != mig_id) return;  // resolved
    FsNode* root = ctx_.tree.by_ino(root_ino);
    if (root == nullptr) {  // the subtree root was unlinked meanwhile
      refuse_inbound();
      return;
    }
    // Anchor the subtree root's prefix inodes (the per-delegation overhead
    // the paper notes: "the authority must cache the containing directory
    // (prefix) inodes for each of its subtrees"), then walk any batch
    // extras' anchors, then install the transferred state (see
    // continue_inbound_anchoring).
    insert_with_prefixes(
        root, InsertKind::kDemand, /*authoritative=*/true,
        /*have_payload=*/true, [this, mig_id, items](CacheEntry* anchor) {
          if (inbound_ == nullptr || inbound_->id != mig_id) return;
          if (anchor == nullptr) {
            refuse_inbound();
            return;
          }
          continue_inbound_anchoring(mig_id, items);
        });
  });
}

void MdsNode::continue_inbound_anchoring(
    std::uint64_t mig_id, std::shared_ptr<std::vector<InodeId>> items) {
  if (inbound_ == nullptr || inbound_->id != mig_id) return;
  while (inbound_->anchor_next < inbound_->extra_roots.size()) {
    const InodeId rino = inbound_->extra_roots[inbound_->anchor_next];
    ++inbound_->anchor_next;
    FsNode* r = ctx_.tree.by_ino(rino);
    if (r == nullptr) continue;  // whole tree unlinked in flight
    insert_with_prefixes(
        r, InsertKind::kDemand, /*authoritative=*/true, /*have_payload=*/true,
        [this, mig_id, items](CacheEntry* a) {
          if (inbound_ == nullptr || inbound_->id != mig_id) return;
          if (a == nullptr) {
            refuse_inbound();
            return;
          }
          continue_inbound_anchoring(mig_id, items);
        });
    return;  // resumes from the anchor's callback
  }
  // Every root anchored: install the transferred items under them.
  std::unordered_set<InodeId> anchored(inbound_->extra_roots.begin(),
                                       inbound_->extra_roots.end());
  anchored.insert(inbound_->root);
  std::uint64_t installed = 0;
  for (InodeId ino : *items) {
    if (anchored.count(ino)) continue;  // anchored above
    FsNode* n = ctx_.tree.by_ino(ino);
    if (n == nullptr) continue;  // unlinked in flight
    cache_insert_anchored(n, InsertKind::kDemand, /*authoritative=*/true);
    ++installed;
  }
  stats_.items_migrated_in += installed;
  send_migrate_ack(inbound_->exporter, mig_id, /*accepted=*/true);
}

void MdsNode::handle_migrate_ack(NetAddr from, const MigrateAckMsg& m) {
  (void)from;
  if (outbound_ == nullptr || outbound_->id != m.migration_id) return;
  if (m.epoch < view_epoch_) {
    // An ack from a superseded regime must not drive the commit point;
    // the watchdog resolves this transaction instead.
    ++stats_.stale_epoch_rejects;
    return;
  }
  OutboundMigration mig = *outbound_;
  outbound_.reset();
  frozen_.erase(mig.root);
  for (InodeId r : mig.extra_roots) frozen_.erase(r);

  if (!m.accepted) {
    flush_deferred();
    return;
  }

  // Commit point: authority flips cluster-wide — the whole batch at once
  // (the importer acked only after anchoring and installing every root).
  std::vector<InodeId> roots;
  roots.reserve(1 + mig.extra_roots.size());
  roots.push_back(mig.root);
  for (InodeId r : mig.extra_roots) roots.push_back(r);
  for (InodeId rino : roots) {
    FsNode* root = ctx_.tree.by_ino(rino);
    if (root != nullptr) {
      auto* subtree =
          dynamic_cast<SubtreePartition*>(&ctx_.partition);
      assert(subtree != nullptr && "migration requires a subtree partition");
      subtree->delegate(root, mig.target);
    }
    imported_.erase(rino);
    subtree_load_.erase(rino);

    // Journal the completion (supersedes the intent record in the bounded
    // log: a restart replays at most one live record per root).
    journal_.append(rino);
  }

  // Drop exported copies (children first) and clean up third-party
  // replica registrations for the items we no longer own.
  std::vector<FsNode*> exported;
  exported.reserve(mig.items.size());
  for (InodeId ino : mig.items) {
    invalidate_replicas(ino, /*removed=*/false);
    FsNode* n = ctx_.tree.by_ino(ino);
    if (n != nullptr) exported.push_back(n);
  }
  std::sort(exported.begin(), exported.end(),
            [](const FsNode* a, const FsNode* b) {
              return a->depth() > b->depth();
            });
  for (FsNode* n : exported) {
    CacheEntry* e = cache_.peek(n->ino());
    if (e == nullptr) continue;
    if (e->cached_children > 0 || e->pins > 0) continue;  // still anchoring
    cache_.erase(n->ino());
  }

  ++stats_.migrations_out;
  stats_.items_migrated_out += mig.items.size();
  last_migration_ = ctx_.sim.now();

  // Persist the completion record, then release the importer. The
  // partition already flipped, so even if this node dies before the
  // Commit leaves, the importer's timeout resolution finds itself the
  // authority and finalizes.
  const std::uint64_t mig_id = mig.id;
  const InodeId mig_root = mig.root;
  const MdsId mig_target = mig.target;
  disk_.journal_append([this, mig_id, mig_root, mig_target]() {
    if (failed_) return;
    auto commit = std::make_unique<MigrateCommitMsg>();
    commit->migration_id = mig_id;
    commit->subtree_root = mig_root;
    ctx_.net.send(id_, mig_target, std::move(commit));
  });

  flush_deferred();
}

void MdsNode::handle_migrate_commit(NetAddr from, const MigrateCommitMsg& m) {
  (void)from;
  if (inbound_ == nullptr || inbound_->id != m.migration_id) return;
  resolve_inbound_migration();  // partition flipped -> finalizes
}

void MdsNode::handle_migrate_abort(const MigrateAbortMsg& m) {
  if (inbound_ == nullptr || inbound_->id != m.migration_id) return;
  resolve_inbound_migration();  // partition unflipped -> rolls back
}

void MdsNode::abort_outbound_migration() {
  if (outbound_ == nullptr) return;
  OutboundMigration mig = *outbound_;
  outbound_.reset();
  frozen_.erase(mig.root);
  for (InodeId r : mig.extra_roots) frozen_.erase(r);
  ++stats_.migrations_aborted;

  // Safe unilaterally: the partition map never flipped, so this node never
  // stopped being the authority. Tell the importer to discard whatever it
  // installed (best effort — its own watchdog covers a lost abort).
  auto abort_msg = std::make_unique<MigrateAbortMsg>();
  abort_msg->migration_id = mig.id;
  ctx_.net.send(id_, mig.target, std::move(abort_msg));

  flush_deferred();
}

void MdsNode::resolve_inbound_migration() {
  if (inbound_ == nullptr) return;
  auto in = std::move(inbound_);
  inbound_done_[in->exporter] = std::max(inbound_done_[in->exporter], in->id);

  // The shared partition map is the transaction's ground truth: the
  // exporter flips it at the commit point and nowhere else. Resolved
  // through this node's own view (map_authority): a fenced importer must
  // judge with the knowledge it actually has, not the quorum side's.
  FsNode* root = ctx_.tree.by_ino(in->root);
  const bool committed = root != nullptr && map_authority(root) == id_;

  if (committed) {
    ++stats_.migrations_in;
    imported_[in->root] = ctx_.sim.now();
    // Batch extras flipped atomically with the primary at the exporter's
    // commit point; stamp them too so min_subtree_residency covers them.
    for (InodeId r : in->extra_roots) imported_[r] = ctx_.sim.now();
    return;
  }

  // Roll back: discard the installed copies, children first, skipping
  // anything that meanwhile became load-bearing (pinned by an in-flight
  // request or anchoring cached children from another code path).
  std::vector<FsNode*> installed;
  installed.reserve(in->items.size());
  for (InodeId ino : in->items) {
    FsNode* n = ctx_.tree.by_ino(ino);
    if (n != nullptr) installed.push_back(n);
  }
  std::sort(installed.begin(), installed.end(),
            [](const FsNode* a, const FsNode* b) {
              return a->depth() > b->depth();
            });
  for (FsNode* n : installed) {
    CacheEntry* e = cache_.peek(n->ino());
    if (e == nullptr) continue;
    if (e->cached_children > 0 || e->pins > 0) continue;
    cache_.erase(n->ino());
  }
  ++stats_.migrations_rolled_back;
}

}  // namespace mdsim
