#include "client/cohort.h"

#include <cassert>

namespace mdsim {

ClientStats& ClientStats::operator+=(const ClientStats& o) {
  ops_issued += o.ops_issued;
  ops_completed += o.ops_completed;
  ops_ok += o.ops_ok;
  ops_failed += o.ops_failed;
  forwarded_replies += o.forwarded_replies;
  retries += o.retries;
  stale_replies += o.stale_replies;
  rejected_replies += o.rejected_replies;
  retries_suppressed += o.retries_suppressed;
  giga_redirects += o.giga_redirects;
  hedges_fired += o.hedges_fired;
  hedge_wins += o.hedge_wins;
  wasted_hedges += o.wasted_hedges;
  latency_seconds.merge(o.latency_seconds);
  return *this;
}

ClientCohort::ClientCohort(Simulation& sim, Network& net, FsTree& tree,
                           Workload& workload, const Partitioner& partition,
                           const DirFragRegistry& dirfrag, int count,
                           ClientId first_id, int num_mds,
                           std::uint64_t seed)
    : sim_(sim),
      net_(net),
      tree_(tree),
      workload_(workload),
      partition_(partition),
      dirfrag_(dirfrag),
      first_id_(first_id),
      num_mds_(num_mds) {
  assert(count >= 0);
  const std::size_t n = static_cast<std::size_t>(count);
  ports_.resize(n);  // never resized again: Port addresses must be stable
  uids_.resize(n);
  rngs_.reserve(n);
  stats_.resize(n);
  timers_.resize(n);
  next_req_.assign(n, 1);
  inflight_.assign(n, 0);
  issued_at_.assign(n, 0);
  attempts_.assign(n, 0);
  last_epoch_.assign(n, 1);
  pending_.resize(n);
  remote_.assign(n, 0);
  remote_idx_.assign(n, 0);
  budgets_.resize(n);
  locs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ClientId id = client_id(static_cast<int>(i));
    ports_[i].cohort = this;
    ports_[i].idx = static_cast<std::uint32_t>(i);
    uids_[i] = static_cast<std::uint32_t>(100 + id);
    rngs_.emplace_back(seed, 0xc11e47000ULL + static_cast<std::uint64_t>(id));
  }
}

void ClientCohort::set_tracer(TraceCollector* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) trace_recs_.resize(ports_.size());
}

void ClientCohort::set_remote_catalog(std::vector<RemoteTarget> catalog,
                                      double fraction) {
  catalog_ = std::move(catalog);
  remote_fraction_ = fraction;
}

ClientStats ClientCohort::totals() const {
  ClientStats t;
  for (const ClientStats& s : stats_) t += s;
  return t;
}

void ClientCohort::reset_latency() {
  for (ClientStats& s : stats_) s.latency_seconds = Summary{};
}

void ClientCohort::start() {
  for (Port& p : ports_) p.addr = net_.attach(&p);
  for (int i = 0; i < size(); ++i) {
    schedule_next(static_cast<std::uint32_t>(i));
  }
}

void ClientCohort::arm(std::uint32_t idx, SimTime due, Fire fire) {
  timers_[idx].cancel();
  timers_[idx] =
      sim_.schedule_at(due, [this, idx, fire]() { (this->*fire)(idx); });
}

void ClientCohort::schedule_next(std::uint32_t idx) {
  Operation op;
  const SimTime delay =
      workload_.next(client_id(static_cast<int>(idx)), sim_.now(),
                     rngs_[idx], &op);
  if (delay == kNever) {
    timers_[idx].cancel();  // this client is done
    return;
  }
  pending_[idx] = std::move(op);
  arm(idx, sim_.now() + delay, &ClientCohort::begin_turn);
}

void ClientCohort::begin_turn(std::uint32_t idx) {
  remote_[idx] = 0;
  if (remote_fraction_ > 0.0 && !catalog_.empty() &&
      rngs_[idx].bernoulli(remote_fraction_)) {
    remote_[idx] = 1;
    remote_idx_[idx] = static_cast<std::uint32_t>(
        rngs_[idx].uniform(catalog_.size()));
  } else {
    const Operation& op = pending_[idx];
    // The target may have been unlinked while we were thinking.
    if (op.target == nullptr || !tree_.alive(op.target)) {
      schedule_next(idx);
      return;
    }
  }
  issue(idx);
}

MdsId ClientCohort::pick_mds(std::uint32_t idx, const Operation& op) {
  const StrategyTraits traits = traits_for(partition_.kind());
  if (!traits.client_computes_location) {
    // GIGA+: if the op's governing directory has a cached split bitmap,
    // route straight to the owning partition (possibly stale — the
    // server answers mis-routes with a redirect and forwards). The
    // giga_empty() guard keeps the common no-fragmentation path free of
    // this block entirely, RNG draws included.
    if (!locs_[idx].giga_empty()) {
      const bool namespace_op = op.op == OpType::kCreate ||
                                op.op == OpType::kMkdir ||
                                op.op == OpType::kLink;
      const FsNode* dir = namespace_op ? op.target : op.target->parent();
      if (dir != nullptr) {
        const auto* g = locs_[idx].giga_for(dir->ino());
        if (g != nullptr) {
          const std::uint64_t h = giga_name_hash(
              dir->ino(), namespace_op ? op.name : op.target->name());
          const std::uint32_t p = giga_partition(h, g->bitmap);
          return giga_node(g->home, p, num_mds_);
        }
      }
    }
    return locs_[idx].resolve(op.target, rngs_[idx], num_mds_);
  }
  // Hash strategies: the client knows the placement function.
  const bool namespace_op = op.op == OpType::kCreate ||
                            op.op == OpType::kMkdir ||
                            op.op == OpType::kLink;
  if (namespace_op) {
    switch (partition_.kind()) {
      case StrategyKind::kDirHash:
        // Dentries live with their directory.
        return partition_.authority_of(op.target) == kInvalidMds
                   ? 0
                   : static_cast<MdsId>(
                         op.target->path_hash() %
                         static_cast<std::uint64_t>(num_mds_));
      case StrategyKind::kFileHash:
      case StrategyKind::kLazyHybrid:
        return static_cast<MdsId>(child_path_hash(op.target, op.name) %
                                  static_cast<std::uint64_t>(num_mds_));
      default:
        break;
    }
  }
  return partition_.authority_of(op.target);
}

void ClientCohort::issue(std::uint32_t idx) {
  auto msg = std::make_unique<ClientRequestMsg>();
  msg->req_id = next_req_[idx]++;
  msg->client = client_id(static_cast<int>(idx));
  // Overload-admission context: retry number and the client-side
  // deadline. Stamped unconditionally (pure field writes); servers only
  // read them when overload protection is on.
  msg->attempt = attempts_[idx] < 255
                     ? static_cast<std::uint8_t>(attempts_[idx])
                     : 255;
  msg->deadline = sim_.now() + retry_.request_timeout;
  inflight_[idx] = msg->req_id;
  issued_at_[idx] = sim_.now();
  if (!hedge_out_.empty()) hedge_out_[idx] = 0;
  ++stats_[idx].ops_issued;

  if (remote_[idx] != 0) {
    // Cross-shard stat: the catalog entry names a remote MDS by global
    // address and the target's owner (whose uid we assume, since our own
    // uid means nothing against another shard's permission state). The
    // reply must route back across the fabric, so the request carries our
    // *global* address; never traced (the collector is shard-local).
    const RemoteTarget& t = catalog_[remote_idx_[idx]];
    msg->client_addr = net_.global_addr(addr(static_cast<int>(idx)));
    msg->op = OpType::kStat;
    msg->uid = t.uid;
    msg->target = t.ino;
    msg->secondary = kInvalidInode;
    ++remote_issued_;
    net_.send(addr(static_cast<int>(idx)), t.mds, std::move(msg));
  } else {
    const Operation& op = pending_[idx];
    msg->client_addr = addr(static_cast<int>(idx));
    msg->op = op.op;
    msg->uid = uids_[idx];
    msg->target = op.target->ino();
    msg->secondary =
        op.secondary != nullptr ? op.secondary->ino() : kInvalidInode;
    msg->name = op.name;
    if (tracer_ != nullptr) {
      TraceRecord& rec = trace_recs_[idx];
      if (attempts_[idx] == 0) {
        rec.begin(msg->req_id, msg->client, op.op, sim_.now());
      } else {
        // Re-issue: the timeout + backoff gap is attributed to kStallWait
        // and the old request instance loses the right to attribute.
        rec.rearm(msg->req_id, sim_.now());
      }
      msg->trace = &rec;
    }
    // Retries distrust cached knowledge: a silent node may be down or the
    // partition may have moved on, so spray somewhere random and re-learn.
    const MdsId mds =
        attempts_[idx] == 0
            ? pick_mds(idx, op)
            : static_cast<MdsId>(
                  rngs_[idx].uniform(static_cast<std::uint64_t>(num_mds_)));
    assert(mds >= 0 && mds < num_mds_);
    if (!primary_.empty()) primary_[idx] = mds;
    net_.send(addr(static_cast<int>(idx)), mds, std::move(msg));
    // Hedge trigger: a warmed-up read-only first attempt arms the hedge
    // timer at the op class's ~p99 delay instead of the timeout. Remote
    // turns never hedge (the backup pick is over *this* shard's nodes;
    // the remote target is another shard's).
    if (hedge_.enabled && num_mds_ > 1 && hedge_eligible(op.op, attempts_[idx])) {
      const SimTime hd = hedge_ests_[idx].delay(op.op, hedge_,
                                                retry_.request_timeout);
      if (hd > 0) {
        arm(idx, sim_.now() + hd, &ClientCohort::on_hedge);
        return;
      }
    }
  }
  arm(idx, sim_.now() + retry_.request_timeout, &ClientCohort::on_timeout);
}

void ClientCohort::on_hedge(std::uint32_t idx) {
  ++stats_[idx].hedges_fired;
  hedge_out_[idx] = 1;
  // One backup copy, same req_id: whichever reply loses the race fails
  // the req_id match in on_reply and is discarded as stale. Never traced
  // (two in-flight copies must not share one attribution record).
  const Operation& op = pending_[idx];
  auto msg = std::make_unique<ClientRequestMsg>();
  msg->req_id = inflight_[idx];
  msg->client = client_id(static_cast<int>(idx));
  msg->client_addr = addr(static_cast<int>(idx));
  msg->op = op.op;
  msg->uid = uids_[idx];
  msg->target = op.target->ino();
  msg->secondary = op.secondary != nullptr ? op.secondary->ino()
                                           : kInvalidInode;
  msg->name = op.name;
  msg->attempt = 0;
  msg->deadline = issued_at_[idx] + retry_.request_timeout;
  msg->hedge = 1;
  const MdsId backup = hedge_pick_backup(primary_[idx], num_mds_, rngs_[idx]);
  assert(backup >= 0 && backup < num_mds_ && backup != primary_[idx]);
  net_.send(addr(static_cast<int>(idx)), backup, std::move(msg));
  // The retry clock keeps its original deadline: arm the ordinary
  // timeout for the remainder of the window.
  arm(idx, issued_at_[idx] + retry_.request_timeout,
      &ClientCohort::on_timeout);
}

void ClientCohort::give_up(std::uint32_t idx) {
  inflight_[idx] = 0;
  attempts_[idx] = 0;
  ++stats_[idx].ops_failed;
  schedule_next(idx);
}

void ClientCohort::on_timeout(std::uint32_t idx) {
  ++stats_[idx].retries;
  ++attempts_[idx];
  if (remote_[idx] == 0 && !tree_.alive(pending_[idx].target)) {
    give_up(idx);  // target vanished while we were waiting
    return;
  }
  // Retry budget: retries are throttled to a fraction of successes.
  // A dry budget means the cluster is rejecting/timing out far faster
  // than it serves — fail fast instead of feeding the storm.
  if (!budgets_[idx].try_spend(retry_.budget)) {
    ++stats_[idx].retries_suppressed;
    give_up(idx);
    return;
  }
  // Exponential backoff with jitter: the whole herd stranded by a dead
  // node times out together; spreading the re-issues over [d/2, d)
  // keeps the survivors (and the node when it returns) from absorbing
  // one synchronized stampede per timeout period.
  const SimTime delay = retry_backoff_delay(retry_, attempts_[idx], rngs_[idx]);
  arm(idx, sim_.now() + delay, &ClientCohort::on_retry);
}

void ClientCohort::on_retry(std::uint32_t idx) {
  if (remote_[idx] == 0 && !tree_.alive(pending_[idx].target)) {
    give_up(idx);
    return;
  }
  issue(idx);
}

void ClientCohort::on_reply(std::uint32_t idx, MessagePtr msg) {
  ClientStats& stats = stats_[idx];
  if (msg->type == MsgType::kGigaRedirect) {
    // Stale-bitmap correction for a mis-routed dentry op. The op itself
    // is still in flight (the server forwarded it); just learn the fresh
    // bitmap so the next op routes right. A redirect for a *remote* turn
    // names another shard's inode; like remote hints and epochs, it is
    // never learned.
    const auto& r = static_cast<GigaRedirectMsg&>(*msg);
    ++stats.giga_redirects;
    if (remote_[idx] == 0) locs_[idx].learn_giga(r.dir, r.bitmap, r.home);
    return;
  }
  if (msg->type != MsgType::kClientReply) return;
  auto& reply = static_cast<ClientReplyMsg&>(*msg);
  if (reply.req_id != inflight_[idx]) {
    // Late reply to a retried request, or a network-duplicated reply to
    // one already accepted: count and ignore (the op was settled once).
    ++stats.stale_replies;
    return;
  }
  if (reply.rejected) {
    // Overload rejection: the request never entered a queue. Honor the
    // server's retry_after (plus jitter) if the budget allows a retry;
    // otherwise fail fast. Mirrors the timeout path's bookkeeping but
    // comes back much sooner than a full request timeout.
    ++stats.rejected_replies;
    ++attempts_[idx];
    if (!hedge_out_.empty()) hedge_out_[idx] = 0;
    if (remote_[idx] == 0 && !tree_.alive(pending_[idx].target)) {
      give_up(idx);
      return;
    }
    if (!budgets_[idx].try_spend(retry_.budget)) {
      ++stats.retries_suppressed;
      give_up(idx);
      return;
    }
    const SimTime delay = rejected_retry_delay(reply.retry_after, rngs_[idx]);
    // Mark idle: a duplicate of this rejection (or a late reply to the
    // shed request) must land in the stale branch, not re-arm a retry.
    inflight_[idx] = 0;
    arm(idx, sim_.now() + delay, &ClientCohort::on_retry);
    return;
  }
  inflight_[idx] = 0;
  attempts_[idx] = 0;
  if (!hedge_out_.empty() && hedge_out_[idx] != 0) {
    // Two copies were racing; the `hedge` echo on the reply says which
    // one settled the op. The loser's reply (if it ever arrives) fails
    // the req_id match above and lands in stale_replies.
    if (reply.hedge != 0) {
      ++stats.hedge_wins;
    } else {
      ++stats.wasted_hedges;
    }
    hedge_out_[idx] = 0;
  }

  ++stats.ops_completed;
  if (reply.success) {
    ++stats.ops_ok;
    budgets_[idx].earn(retry_.budget);
    // Feed the tail estimator (integer-only, no RNG; a pure no-op for
    // the hedge decision until the class reaches min_samples). Local
    // turns only: a remote turn's latency describes another shard.
    if (hedge_.enabled && remote_[idx] == 0) {
      hedge_ests_[idx].observe(pending_[idx].op, sim_.now() - issued_at_[idx]);
    }
  } else {
    ++stats.ops_failed;
  }
  if (reply.hops > 0) ++stats.forwarded_replies;
  stats.latency_seconds.add(to_seconds(sim_.now() - issued_at_[idx]));
  if (remote_[idx] == 0) {
    if (tracer_ != nullptr) {
      TraceRecord& rec = trace_recs_[idx];
      rec.advance(TraceStage::kNetReply, sim_.now(), reply.req_id);
      rec.hops = reply.hops;
      rec.failed = !reply.success;
      tracer_->complete(rec, sim_.now());
    }
    if (reply.epoch > last_epoch_[idx]) {
      last_epoch_[idx] = reply.epoch;
      locs_[idx].clear();
    }
    locs_[idx].learn(reply.hints);
    if (reply.giga_dir != kInvalidInode) {
      locs_[idx].learn_giga(reply.giga_dir, reply.giga_bitmap,
                            reply.giga_home);
    }
  }
  // Remote replies: hints and epochs describe another shard's namespace
  // and partition map — both are meaningless against ours, so neither is
  // learned (inode ids collide across shard trees).

  // The next think timer supersedes (cancels) the pending timeout.
  schedule_next(idx);
}

}  // namespace mdsim
