// Load balancer (paper sections 4.3 and 5.1): nodes exchange heartbeat
// messages carrying a load metric — "a weighted combination of node
// throughput and cache misses" — and busy nodes re-delegate subtrees to
// non-busy nodes. "A busy node will initially try to re-delegate entire
// trees that were delegated to it before delegating subtrees of its
// workload."
//
// The paper is explicit that this prototype algorithm is primitive ("a
// poor choice for maximizing total cluster throughput, [but] sufficient to
// show the promise of a dynamic partitioning strategy"); we reproduce that
// character rather than improving on it. Alternative weightings are
// exposed through MdsParams for the ablation bench.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "mds/mds_node.h"

namespace mdsim {

void MdsNode::start_heartbeat() {
  // Stagger nodes slightly so heartbeats don't synchronize.
  const SimTime start =
      ctx_.params.heartbeat_period + from_micros(137) * (id_ + 1);
  ctx_.sim.every(ctx_.params.heartbeat_period, start, [this]() {
    heartbeat_tick();
    return true;
  });
}

double MdsNode::compute_load() {
  const SimTime now = ctx_.sim.now();
  const SimTime dt = now - bal_prev_time_;
  if (dt == 0) return last_load_;
  const double secs = to_seconds(dt);
  const double ops =
      static_cast<double>(stats_.replies_sent - bal_prev_replies_) / secs;
  const double misses =
      static_cast<double>(cache_.stats().misses - bal_prev_misses_) / secs;
  bal_prev_time_ = now;
  bal_prev_replies_ = stats_.replies_sent;
  bal_prev_misses_ = cache_.stats().misses;

  if (ctx_.params.balancer_metric ==
      MdsParams::BalancerMetric::kUtilizationVector) {
    // Bottleneck-resource utilization in [0, ~1] over this window:
    // whichever of CPU, disk or cache pressure binds the node. Scaled by
    // 1000 so the thresholds and idle checks behave like the rate metric.
    const double dts = static_cast<double>(dt);
    const double cpu =
        static_cast<double>(cpu_.busy_time() - bal_prev_cpu_busy_) / dts;
    const double disk =
        static_cast<double>(disk_.store_busy_time() - bal_prev_disk_busy_) /
        dts;
    const double miss_pressure =
        ops > 1.0 ? std::min(1.0, misses / std::max(ops, 1.0)) : 0.0;
    bal_prev_cpu_busy_ = cpu_.busy_time();
    bal_prev_disk_busy_ = disk_.store_busy_time();
    return 1000.0 * std::max({cpu, disk, miss_pressure});
  }
  return ctx_.params.load_weight_throughput * ops +
         ctx_.params.load_weight_miss * misses;
}

void MdsNode::heartbeat_tick() {
  if (failed_) return;  // a dead node is silent; survivors notice
  last_load_ = compute_load();
  peer_loads_[static_cast<std::size_t>(id_)] = last_load_;
  const bool health_on = ctx_.params.health.enabled;
  if (health_on) health_tick(ctx_.sim.now());
  // Alive-mask: who this node currently hears. Receivers listed in it
  // count the heartbeat as a lease ack (partition safety); built once,
  // shared read-only by every per-peer message.
  std::vector<std::uint64_t> alive_mask;
  if (lease_quorum_on()) {
    alive_mask.assign((static_cast<std::size_t>(ctx_.num_mds) + 63) / 64, 0);
    for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
      if (peer != id_ && peer_alive_[static_cast<std::size_t>(peer)] == 0)
        continue;
      alive_mask[static_cast<std::size_t>(peer) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(peer) % 64);
    }
  }
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    auto msg = std::make_unique<HeartbeatMsg>();
    msg->sender = id_;
    msg->load = last_load_;
    msg->epoch = view_epoch_;
    msg->alive_mask = alive_mask;
    msg->dirfrag_gen = ctx_.dirfrag.generation();
    if (health_on) {
      // Health piggyback: the send timestamp (receiver derives the
      // one-way delivery lag) and the self-measured service lag.
      msg->sent_at = ctx_.sim.now();
      msg->svc_lag = static_cast<SimTime>(svc_ewma_self_);
    }
    ctx_.net.send(id_, peer, std::move(msg));
  }
  maybe_unreplicate();
  failure_tick(ctx_.sim.now());
  // A fenced node keeps heartbeating (so the quorum side can mark it up
  // on heal) but must not initiate migrations.
  if (!fenced_) maybe_rebalance();
}

void MdsNode::handle_heartbeat(const HeartbeatMsg& m) {
  if (m.sender < 0 || static_cast<std::size_t>(m.sender) >= peer_loads_.size())
    return;
  const auto idx = static_cast<std::size_t>(m.sender);
  peer_last_hb_[idx] = ctx_.sim.now();
  // Lease ack: the sender still hears us. Merely receiving its heartbeat
  // is not enough — under an asymmetric cut (our outbound dead, inbound
  // alive) the sender will soon drop us from its mask, and our lease must
  // lapse with it.
  if (m.lists_alive(id_)) peer_ack_time_[idx] = ctx_.sim.now();
  // Epoch gossip: adopt a newer map view (no-op while fenced).
  observe_epoch(m.epoch);
  // The first heartbeat after an outage (or a false detection) marks the
  // peer back up.
  peer_up(m.sender);
  // A heartbeat generation ahead of what we've applied means we missed a
  // DirFragNotify (link fault, partition): catch up now.
  if (m.dirfrag_gen > dirfrag_seen_gen_) dirfrag_resync(m.dirfrag_gen);
  peer_loads_[idx] = m.load;
  // Gray-failure scoring: fold the sender's self-reported service lag and
  // the heartbeat's one-way delivery lag into its EWMA score. Both
  // symptoms matter — a fail-slow disk shows up in svc_lag, a degraded
  // link in the delivery delay — and a gray node's heartbeats still
  // arrive, which is exactly why liveness detection alone misses it.
  if (ctx_.params.health.enabled && m.sent_at != 0) {
    if (peer_health_.empty()) {
      peer_health_.assign(static_cast<std::size_t>(ctx_.num_mds), 0.0);
      peer_degraded_.assign(static_cast<std::size_t>(ctx_.num_mds), 0);
    }
    const double sample =
        static_cast<double>((ctx_.sim.now() - m.sent_at) + m.svc_lag);
    double& score = peer_health_[idx];
    score += kHealthAlpha * (sample - score);
  }
}

void MdsNode::health_tick(SimTime now) {
  const HealthParams& hp = ctx_.params.health;
  if (peer_health_.empty()) {
    peer_health_.assign(static_cast<std::size_t>(ctx_.num_mds), 0.0);
    peer_degraded_.assign(static_cast<std::size_t>(ctx_.num_mds), 0);
  }
  // Self signal: work accepted but not yet served (CPU + store backlog,
  // ns). A fail-slow node drains slower than it fills, so this grows with
  // the injected multiplier even while its heartbeats look perfectly
  // healthy.
  const double raw =
      static_cast<double>(cpu_.backlog() + disk_.store_backlog());
  svc_ewma_self_ += kHealthAlpha * (raw - svc_ewma_self_);
  peer_health_[static_cast<std::size_t>(id_)] = svc_ewma_self_;

  // Degraded means slow *relative to the cluster*: compare each alive
  // node's score against the alive median, with an absolute floor so an
  // idle cluster never flags anyone, and hysteresis so a borderline node
  // doesn't flap.
  std::vector<double> scores;
  scores.reserve(static_cast<std::size_t>(ctx_.num_mds));
  for (MdsId p = 0; p < ctx_.num_mds; ++p) {
    if (p != id_ && peer_alive_[static_cast<std::size_t>(p)] == 0) continue;
    scores.push_back(peer_health_[static_cast<std::size_t>(p)]);
  }
  if (scores.size() < 3) return;  // relative detection needs a population
  std::nth_element(scores.begin(),
                   scores.begin() + static_cast<std::ptrdiff_t>(scores.size() / 2),
                   scores.end());
  const double median = scores[scores.size() / 2];
  const double floor = static_cast<double>(hp.min_lag);
  const double flag_at = std::max(hp.degraded_factor * median, floor);
  const double unflag_at = std::max(kRecoveredFactor * median, floor);
  for (MdsId p = 0; p < ctx_.num_mds; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (p != id_ && peer_alive_[i] == 0) {
      // Crashed peers leave the gray regime: their last score is stale
      // and the liveness machinery owns them now.
      peer_degraded_[i] = 0;
      continue;
    }
    if (peer_degraded_[i] == 0) {
      if (peer_health_[i] > flag_at) {
        peer_degraded_[i] = 1;
        ctx_.faults.begin_episode(Episode::Kind::kGray, p, now, id_);
      }
    } else if (peer_health_[i] < unflag_at) {
      peer_degraded_[i] = 0;
      ctx_.faults.end_episode(Episode::Kind::kGray, p, now);
    }
  }
}

void MdsNode::bump_subtree_load(const FsNode* node) {
  // Attribute the request to the enclosing delegation point, so the
  // balancer can judge whole delegated trees.
  if (subtree_map_ == nullptr) return;
  for (const FsNode* n = node; n != nullptr; n = n->parent()) {
    if (subtree_map_->is_delegation_point(n) || n->parent() == nullptr) {
      auto [it, inserted] = subtree_load_.try_emplace(
          n->ino(), DecayCounter(ctx_.params.popularity_half_life));
      it->second.hit(ctx_.sim.now());
      return;
    }
  }
}

void MdsNode::maybe_rebalance() {
  if (!ctx_.traits.load_balancing) return;
  if (outbound_ != nullptr) return;
  const SimTime now = ctx_.sim.now();
  // A node that has flagged *itself* gray volunteers load away on a much
  // shorter cooldown: the anti-thrash pause is tuned for load spikes, not
  // for evacuating a sick node round after round.
  const bool health_on = ctx_.params.health.enabled;
  const bool volunteer = health_on && self_degraded();
  const SimTime cooldown = volunteer ? kVolunteerCooldown : kMigrationCooldown;
  if (now - last_migration_ < cooldown) return;

  // Mean over the nodes believed alive: a dead peer's sentinel load must
  // not freeze the balancer for the whole outage.
  double mean = 0.0;
  std::size_t alive = 0;
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer != id_ && peer_alive_[static_cast<std::size_t>(peer)] == 0)
      continue;
    mean += peer_loads_[static_cast<std::size_t>(peer)];
    ++alive;
  }
  if (alive == 0) return;
  mean /= static_cast<double>(alive);
  if (mean < 1.0) return;  // idle cluster
  // A volunteer also triggers at a much lower load threshold: its
  // throughput-based load metric is already sagging (it serves less while
  // its queues grow), so waiting for the ordinary over-mean trigger would
  // keep the territory pinned to the sick node.
  const double trigger =
      volunteer ? kVolunteerTrigger : ctx_.params.balance_trigger;
  if (last_load_ <= trigger * mean) return;

  // Busiest node ships work to the least-busy below-target node. Gray
  // peers are never targets: a fail-slow node's throughput collapse makes
  // it *look* underloaded, so without the health veto the balancer would
  // steer the cluster's work straight at the sick node.
  MdsId target = kInvalidMds;
  double target_load = kBalanceTarget * mean;
  for (MdsId peer = 0; peer < ctx_.num_mds; ++peer) {
    if (peer == id_) continue;
    if (peer_alive_[static_cast<std::size_t>(peer)] == 0) continue;
    if (health_on && peer_degraded(peer)) continue;
    if (peer_loads_[static_cast<std::size_t>(peer)] < target_load) {
      target = peer;
      target_load = peer_loads_[static_cast<std::size_t>(peer)];
    }
  }
  if (target == kInvalidMds) return;

  double excess_fraction = (last_load_ - mean) / last_load_;
  // A volunteer wants out from under most of its territory, not just the
  // sliver above the mean.
  if (volunteer) excess_fraction = std::max(excess_fraction, 0.5);
  FsNode* root = pick_export_subtree(excess_fraction);
  if (root == nullptr) return;
  // A volunteer batches several subtrees into the one transaction: the
  // intent journal append — multi-second on the very disk that made the
  // node sick — is paid once per batch instead of once per subtree.
  std::vector<FsNode*> extras;
  if (volunteer) extras = pick_evacuation_extras(root);
  begin_migration(root, target, std::move(extras));
}

FsNode* MdsNode::exportable_delegation(InodeId ino, SimTime now) const {
  auto iit = imported_.find(ino);
  if (iit == imported_.end() && subtree_map_->delegation_at(ino) != id_) {
    return nullptr;  // not a tree delegated to us (e.g. default territory)
  }
  // Freshly imported trees stay put (no ping-pong).
  if (iit != imported_.end() && now - iit->second < kMinSubtreeResidency) {
    return nullptr;
  }
  FsNode* n = ctx_.tree.by_ino(ino);
  if (n == nullptr || n->parent() == nullptr) return nullptr;  // never the root
  if (frozen_.count(ino)) return nullptr;
  return n;
}

FsNode* MdsNode::pick_export_subtree(double excess_fraction) {
  const SimTime now = ctx_.sim.now();
  if (subtree_map_ == nullptr) return nullptr;

  // Phase 1: whole trees that were delegated to this node, judged by the
  // per-delegation decayed load counters. Pick the one whose share of our
  // load is closest to the excess we want to shed.
  double total = 0.0;
  for (auto& [ino, counter] : subtree_load_) total += counter.get(now);

  FsNode* best = nullptr;
  double best_score = 1e300;
  if (total > 1.0) {
    for (auto& [ino, counter] : subtree_load_) {
      FsNode* n = exportable_delegation(ino, now);
      if (n == nullptr) continue;
      const double share = counter.get(now) / total;
      if (share < 0.02) continue;  // too cold to help
      const double score = std::abs(share - excess_fraction);
      if (score < best_score) {
        best_score = score;
        best = n;
      }
    }
    if (best != nullptr) return best;
  }

  // Phase 2: split our own workload — pick the cached authoritative
  // directory whose traversal popularity best matches the excess. A
  // directory's popularity counts every request that passed through it,
  // so it approximates subtree temperature.
  double total_pop = 0.0;
  std::vector<std::pair<FsNode*, double>> dirs;
  cache_.for_each([&](CacheEntry& e) {
    if (!e.authoritative || !e.node->is_dir()) return;
    if (e.node->parent() == nullptr) return;
    const double pop = e.popularity.get(now);
    if (e.node->depth() == 1) total_pop += pop;
    if (pop < 1.0) return;
    if (subtree_map_->is_delegation_point(e.node)) return;  // phase 1 covered
    if (subtree_frozen(e.node)) return;
    dirs.emplace_back(e.node, pop);
  });
  if (dirs.empty()) return nullptr;
  if (total_pop < 1.0) {
    for (auto& [n, p] : dirs) total_pop = std::max(total_pop, p);
  }
  best = nullptr;
  best_score = 1e300;
  for (auto& [n, pop] : dirs) {
    const double share = pop / std::max(total_pop, 1.0);
    const double score = std::abs(share - excess_fraction);
    if (score < best_score) {
      best_score = score;
      best = n;
    }
  }
  return best;
}

std::vector<FsNode*> MdsNode::pick_evacuation_extras(FsNode* primary) {
  std::vector<FsNode*> extras;
  if (subtree_map_ == nullptr) return extras;
  const SimTime now = ctx_.sim.now();

  // Candidates from both pick_export_subtree phases: whole trees delegated
  // to this node (by decayed per-delegation load) and hot cached
  // authoritative directories (by traversal popularity). The weights are
  // only compared within the list, so mixing the two scales is fine —
  // both order "hot before cold".
  std::vector<std::pair<FsNode*, double>> cands;
  for (auto& [ino, counter] : subtree_load_) {
    if (FsNode* n = exportable_delegation(ino, now)) {
      cands.emplace_back(n, counter.get(now));
    }
  }
  cache_.for_each([&](CacheEntry& e) {
    if (!e.authoritative || !e.node->is_dir()) return;
    if (e.node->parent() == nullptr) return;
    const double pop = e.popularity.get(now);
    if (pop < 1.0) return;
    if (subtree_map_->is_delegation_point(e.node)) return;  // listed above
    if (subtree_frozen(e.node)) return;
    cands.emplace_back(e.node, pop);
  });
  std::sort(cands.begin(), cands.end(),
            [](const std::pair<FsNode*, double>& a,
               const std::pair<FsNode*, double>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first->ino() < b.first->ino();  // deterministic ties
            });

  // Greedy, hottest first, skipping anything nested inside (or enclosing)
  // an already-picked root: exporting an ancestor covers the descendant,
  // and double-freezing one path would wedge the unfreeze bookkeeping.
  std::vector<FsNode*> picked{primary};
  for (auto& [n, w] : cands) {
    if (picked.size() >= kEvacuationMaxRoots) break;
    bool overlaps = false;
    for (FsNode* p : picked) {
      if (n == p || FsTree::is_ancestor_of(p, n) ||
          FsTree::is_ancestor_of(n, p)) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) picked.push_back(n);
  }
  extras.assign(picked.begin() + 1, picked.end());
  return extras;
}

}  // namespace mdsim
