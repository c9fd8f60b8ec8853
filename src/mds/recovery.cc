// Failure detection, takeover and restart (paper section 4.6).
//
// Detection is distributed: every node watches the balancer heartbeats of
// its peers and declares one dead after `heartbeat_miss_threshold` silent
// periods. The lowest live id then acts as takeover coordinator: it
// redistributes the dead node's delegations round-robin over the
// survivors and (warm takeover) has each heir replay the dead node's
// bounded journal from shared storage — the paper's "journal [as] a very
// recent or current picture of the failed node's working metadata set".
// Strategies without heartbeats have no detector: the cluster tells every
// survivor at the crash instant (ClusterSim::fail_mds), and the lowest
// runs the same takeover.
// A false positive (flaky link, not a dead peer) degenerates into a
// forced re-delegation: the partition map stays consistent, the "dead"
// node simply starts forwarding, and the first heartbeat heard marks it
// back up.
//
// Restart replays the node's own journal against the object store —
// one sequential log read, coalesced tier-2 writebacks, then a CPU-paced
// cache warm-up with whatever the takeover left it — and the balancer
// repopulates it with load as its heartbeats resume.
//
// All watchdogs (liveness, migration deadlines, wedged replica fetches,
// stale attr gathers) piggyback on the heartbeat tick: no timer events
// are scheduled in healthy runs, so the fault machinery is inert — and
// the simulation byte-identical — until something actually fails.
#include <algorithm>
#include <cassert>

#include "mds/mds_node.h"

namespace mdsim {

void MdsNode::failure_tick(SimTime now) {
  if (lease_quorum_on()) evaluate_lease(now);
  check_peer_liveness(now);
  if (!pending_takeover_.empty()) sweep_pending_takeovers(now);

  // Double-commit watchdogs (migration.cc has the resolution logic).
  if (outbound_ != nullptr && now >= outbound_->deadline) {
    ++stats_.migration_timeouts;
    abort_outbound_migration();
  }
  if (inbound_ != nullptr && now >= inbound_->deadline) {
    ++stats_.migration_timeouts;
    resolve_inbound_migration();
  }

  // Replica fetches whose grant never arrived: fail the waiters so the
  // inode's coalescing slot unwedges (clients retry; the next fetch
  // starts clean).
  if (!replica_fetch_deadline_.empty()) {
    std::vector<InodeId> expired;
    for (const auto& [ino, deadline] : replica_fetch_deadline_) {
      if (now >= deadline) expired.push_back(ino);
    }
    for (InodeId ino : expired) {
      replica_fetch_deadline_.erase(ino);
      ++stats_.replica_fetch_timeouts;
      auto waiters = cache_.take_fetch_waiters(ino, FetchChannel::kReplica);
      for (auto& w : waiters) w(nullptr);
    }
  }

  // Attr gathers whose flush was lost: resume the parked reads with the
  // attributes at hand (monotone-stale is tolerated by the scheme).
  if (!attr_waiters_.empty()) {
    std::vector<InodeId> stale;
    for (const auto& [ino, gather] : attr_waiters_) {
      if (now - gather.since >= kAttrGatherTimeout) {
        stale.push_back(ino);
      }
    }
    for (InodeId ino : stale) {
      ++stats_.attr_gather_timeouts;
      resume_attr_waiters(ino);
    }
  }
}

void MdsNode::check_peer_liveness(SimTime now) {
  const SimTime horizon = static_cast<SimTime>(kHeartbeatMissThreshold) *
                          ctx_.params.heartbeat_period;
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    const auto idx = static_cast<std::size_t>(peer);
    if (peer_alive_[idx] == 0) continue;
    // peer_last_hb_ starts at 0; the horizon exceeds the first heartbeat's
    // arrival time, so a healthy bootstrap never trips this.
    if (now - peer_last_hb_[idx] > horizon) on_peer_detected_down(peer);
  }
}

void MdsNode::peer_down(MdsId peer) {
  const auto idx = static_cast<std::size_t>(peer);
  peer_alive_[idx] = 0;
  // Infinite load: never chosen as a migration target.
  peer_loads_[idx] = 1e300;
  // Dentry authorities of fragmented directories route around the dead
  // node from here on (the hash otherwise keeps sending its share of the
  // directory into a black hole until the peer recovers).
  ctx_.dirfrag.set_node_alive(peer, false);
  ++stats_.peer_down_detections;
  ctx_.faults.note_detection(peer, id_, ctx_.sim.now());
}

void MdsNode::peer_up(MdsId peer) {
  const auto idx = static_cast<std::size_t>(peer);
  if (peer_alive_[idx] != 0) return;
  // Back as a migration and forwarding target, and as a dentry-authority
  // candidate for fragmented directories.
  peer_alive_[idx] = 1;
  peer_loads_[idx] = 0.0;
  ctx_.dirfrag.set_node_alive(peer, true);
  ctx_.faults.note_marked_up(peer, ctx_.sim.now());
}

MdsId MdsNode::coordinator() const {
  for (MdsId i = 0; i < id_; ++i) {
    if (peer_alive_[static_cast<std::size_t>(i)] != 0) return i;
  }
  return id_;
}

void MdsNode::on_peer_detected_down(MdsId peer) {
  peer_down(peer);

  // A migration in flight with the dead peer resolves unilaterally.
  if (outbound_ != nullptr && outbound_->target == peer) {
    abort_outbound_migration();
  }
  if (inbound_ != nullptr && inbound_->exporter == peer) {
    resolve_inbound_migration();
  }

  if (lease_quorum_on()) {
    // Quorum-gated takeover: don't re-delegate on first suspicion. Record
    // the earliest re-delegation time; the watchdog sweep executes it once
    // the grace has covered the victim's lease expiry — or cancels it if
    // the peer comes back (flapping link, transient cut).
    pending_takeover_.emplace(peer, ctx_.sim.now() + kTakeoverGrace);
    return;
  }

  // Legacy immediate path (2-node clusters, safety disabled): the
  // coordinator takes over. Sweeping every dead peer (not just this one)
  // covers a coordinator that died before acting: the next-lowest
  // survivor redoes the sweep, and already-redistributed peers are
  // skipped inside.
  if (coordinator() != id_) return;
  for (MdsId dead = 0; dead < ctx_.num_mds; ++dead) {
    if (dead == id_ || peer_alive_[static_cast<std::size_t>(dead)] != 0)
      continue;
    take_over_failed_peer(dead);
  }
}

// --------------------------------------------------------------------------
// Authority leases and quorum-gated takeover.
//
// The lease is renewed by *being heard*: every heartbeat carries the
// sender's alive-mask, and a receiver records an ack only when the mask
// lists it. A node partitioned away — or one whose outbound link is cut
// while its inbound still works — stops accumulating acks, loses the
// strict-majority quorum within authority_lease, and self-fences: writes
// park, migrations are refused, reads are served (possibly stale). The
// majority side waits out takeover_grace (which covers the victim's lease
// expiry) before re-delegating, so at every instant at most one lease-valid
// authority exists per subtree. On heal the fenced node's acks resume, the
// lease renews, and it reconciles: adopt the current map epoch, shed
// authoritative state the new regime assigned elsewhere, re-install from
// its journal only what it still owns, and re-route the parked writes.
// --------------------------------------------------------------------------

int MdsNode::quorum_ackers(SimTime now) const {
  int ackers = 1;  // self
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    if (now - peer_ack_time_[static_cast<std::size_t>(peer)] <=
        kAuthorityLease) {
      ++ackers;
    }
  }
  return ackers;
}

void MdsNode::evaluate_lease(SimTime now) {
  const bool quorum = 2 * quorum_ackers(now) > ctx_.num_mds;
  if (!quorum && !fenced_) {
    fence();
  } else if (quorum && fenced_) {
    unfence_and_reconcile();
  }
}

void MdsNode::fence() {
  fenced_ = true;
  ctx_.faults.begin_episode(Episode::Kind::kFence, id_, ctx_.sim.now());
  // An export in flight cannot complete against the quorum side; give it
  // up now (the map never flipped — rollback is clean on both ends).
  if (outbound_ != nullptr) abort_outbound_migration();
}

void MdsNode::unfence_and_reconcile() {
  fenced_ = false;
  ctx_.faults.end_episode(Episode::Kind::kFence, id_, ctx_.sim.now());

  const std::uint64_t map_epoch = subtree_map_->epoch();
  const bool reconfigured = map_epoch != view_epoch_;
  view_epoch_ = map_epoch;
  if (reconfigured) {
    // Epoch reconciliation: while we were fenced the quorum side
    // re-delegated some (possibly all) of our territory. Discard the
    // superseded authoritative state, children first so the cache tree
    // invariant holds; replicas stay (coherence re-registers them as they
    // are touched).
    std::vector<const CacheEntry*> stale;
    cache_.for_each([&](CacheEntry& e) {
      if (e.authoritative && e.pins == 0 && authority_for(e.node) != id_) {
        stale.push_back(&e);
      }
    });
    std::sort(stale.begin(), stale.end(),
              [](const CacheEntry* a, const CacheEntry* b) {
                return a->node->depth() > b->node->depth();
              });
    std::uint64_t dropped = 0;
    for (const CacheEntry* e : stale) {
      const CacheEntry* cur = cache_.peek(e->node->ino());
      if (cur == nullptr || cur->cached_children > 0) continue;
      if (cache_.erase(e->node->ino())) ++dropped;
    }
    stats_.reconcile_dropped_items += dropped;

    // Replay the journal only for subtrees we still own: the process
    // never died, so this is a cheap re-install of anything the shed pass
    // (or pressure while fenced) evicted from territory that is still
    // ours under the new epoch.
    for (InodeId ino : journal_.replay()) {
      FsNode* n = ctx_.tree.by_ino(ino);
      if (n == nullptr || authority_for(n) != id_) continue;
      if (cache_.peek(ino) == nullptr) {
        cache_insert_anchored(n, InsertKind::kDemand, /*authoritative=*/true);
      }
    }
  }

  // Writes parked by the fence re-enter the pipeline; under a new epoch
  // most immediately forward to the authorities that superseded us.
  std::deque<RequestPtr> parked;
  parked.swap(parked_);
  for (auto& req : parked) route(std::move(req));
}

void MdsNode::sweep_pending_takeovers(SimTime now) {
  // Cancel takeovers whose peer came back within the grace (heartbeats
  // marked it up again): transient suspicion must not cost territory.
  for (auto it = pending_takeover_.begin(); it != pending_takeover_.end();) {
    if (peer_alive_[static_cast<std::size_t>(it->first)] != 0) {
      it = pending_takeover_.erase(it);
    } else {
      ++it;
    }
  }
  if (pending_takeover_.empty()) return;

  // A minority side never elects a coordinator: without a strict majority
  // behind it, this node stalls (and is itself fenced or about to be).
  if (fenced_ || 2 * quorum_ackers(now) <= ctx_.num_mds) {
    ++stats_.takeovers_deferred;
    return;
  }
  // The coordinator acts; everyone else holds its pending set as a
  // backstop in case the coordinator dies before acting.
  if (coordinator() != id_) return;
  std::vector<MdsId> ready;
  for (const auto& [dead, eligible] : pending_takeover_) {
    if (now >= eligible) ready.push_back(dead);
  }
  std::sort(ready.begin(), ready.end());  // deterministic order
  for (MdsId dead : ready) {
    pending_takeover_.erase(dead);
    take_over_failed_peer(dead);
  }
}

void MdsNode::take_over_failed_peer(MdsId dead) {
  std::vector<MdsId> survivors;
  for (MdsId i = 0; i < ctx_.num_mds; ++i) {
    if (i == dead) continue;
    if (i != id_ && peer_alive_[static_cast<std::size_t>(i)] == 0) continue;
    survivors.push_back(i);
  }
  if (survivors.empty()) return;

  // Hashed placements (no subtree map) would re-map rather than
  // re-delegate — out of scope: the coordinator alone replays the journal.
  SubtreePartition* subtree = subtree_map_;
  const auto delegations = subtree != nullptr
                               ? subtree->delegations_of(dead)
                               : std::vector<const FsNode*>{};
  const bool owns_root =
      subtree != nullptr && subtree->authority_of(ctx_.tree.root()) == dead;
  // The heartbeat sweeps revisit every peer believed dead; one with no
  // territory left was taken over already. A heartbeat-less crash is
  // taken over once, at the crash.
  if (ctx_.traits.load_balancing && delegations.empty() && !owns_root) {
    return;
  }

  if (lease_quorum_on()) {
    // Failure-driven reconfiguration: stamp the new assignments with a
    // fresh epoch so traffic from the superseded regime (a fenced node
    // that still believes itself authority) is recognizably stale, and
    // push the new epoch to every node we can reach — the MDSMap-style
    // broadcast. Fenced nodes ignore it (their view stays frozen until
    // they reconcile); truly partitioned nodes simply would not have
    // received it, which the shared map models via observe_epoch's gate.
    view_epoch_ = subtree->bump_epoch();
    for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
      if (peer == id_ || peer == dead) continue;
      if (peer_alive_[static_cast<std::size_t>(peer)] == 0) continue;
      ctx_.nodes[static_cast<std::size_t>(peer)]->observe_epoch(view_epoch_);
    }
  }

  std::vector<MdsId> heirs;
  std::size_t rr = 0;
  for (const FsNode* root : delegations) {
    const MdsId heir = survivors[rr++ % survivors.size()];
    subtree->delegate(root, heir);
    heirs.push_back(heir);
  }
  if (owns_root) {
    subtree->delegate(ctx_.tree.root(), survivors.front());
    heirs.push_back(survivors.front());
  }
  if (heirs.empty()) heirs.push_back(survivors.front());

  ++stats_.takeovers;
  ctx_.faults.note_takeover(dead, ctx_.sim.now());

  const MdsNode& victim = *ctx_.nodes[static_cast<std::size_t>(dead)];
  if (victim.warm_takeover_) {
    // The dead node's journal lives on shared storage (section 4.6):
    // every heir replays it and installs the items it now owns.
    std::sort(heirs.begin(), heirs.end());
    heirs.erase(std::unique(heirs.begin(), heirs.end()), heirs.end());
    const auto working_set = victim.journal_.replay();
    for (MdsId heir : heirs) {
      ctx_.nodes[static_cast<std::size_t>(heir)]->warm_from_journal(
          working_set, /*own_log=*/false);
    }
  }
}

void MdsNode::restart() {
  assert(!failed_);
  recovering_ = true;

  // Everything from before the crash is void: cache contents (missed
  // invalidations), migration state (resolved by peers or by the shared
  // partition map), fetch waiters, parked reads (their clients timed out
  // and retried long ago).
  clear_cache_for_rejoin();

  // Fresh liveness view — the node heard nothing while it was down, so it
  // must not declare the whole cluster dead at its first tick.
  const SimTime now = ctx_.sim.now();
  std::fill(peer_alive_.begin(), peer_alive_.end(), 1);
  std::fill(peer_last_hb_.begin(), peer_last_hb_.end(), now);
  std::fill(peer_loads_.begin(), peer_loads_.end(), 0.0);
  std::fill(peer_ack_time_.begin(), peer_ack_time_.end(), now);
  // Health scores are pre-crash observations; start the gray-failure
  // detector from scratch.
  std::fill(peer_health_.begin(), peer_health_.end(), 0.0);
  std::fill(peer_degraded_.begin(), peer_degraded_.end(), 0);
  svc_ewma_self_ = 0.0;
  // A rebooting node fetches the current map from shared storage before
  // serving (the same place it reads its journal), so it rejoins at the
  // cluster's epoch rather than its pre-crash view.
  fenced_ = false;
  if (subtree_map_ != nullptr) view_epoch_ = subtree_map_->epoch();
  bal_prev_time_ = now;
  bal_prev_replies_ = stats_.replies_sent;
  bal_prev_misses_ = cache_.stats().misses;
  bal_prev_cpu_busy_ = cpu_.busy_time();
  bal_prev_disk_busy_ = disk_.store_busy_time();

  // Replay the bounded journal against the object store, then warm the
  // cache with whatever this node still owns after the takeover
  // redistributed its delegations.
  warm_from_journal(journal_.replay(), /*own_log=*/true);
}

}  // namespace mdsim
