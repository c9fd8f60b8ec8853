// Simulated file-system clients, held as one dense cohort.
//
// Clients are closed-loop: issue a metadata request, wait for the reply,
// think, repeat (the workload generator controls both the op stream and
// the pacing). For the subtree strategies, request routing uses each
// client's location cache (initial ignorance + learned hints); for the
// hashed strategies the client computes the authority directly, as those
// systems allow ("clients can locate and contact the responsible MDS
// directly", section 3.1.2).
//
// The population is a struct-of-arrays indexed by a dense client index,
// and both engines drive it. A client has at most one live timer at a time
// (think, request timeout, retry backoff or hedge trigger: the closed-loop
// invariant), and that timer is an exact engine event. Arming a client's
// timer cancels the one it supersedes, so the event heap holds only live
// timers.
//
// Each client owns a real network address — a per-client Port endpoint
// attaches to the Network — so MDS-side per-address logic (reply routing,
// update dedup) sees exactly the shape it expects, and request ids remain
// a plain per-client sequence.
//
// In a sharded cluster the cohort also drives cross-shard traffic: a
// catalog of remote targets (global MDS address, inode, owning uid) is
// installed at build time, and each think-turn issues a remote stat with
// probability `remote_fraction`, spoofing the owner's uid. Remote replies
// carry hints and epochs that refer to *another shard's* namespace, so
// both are ignored; remote ops are never traced (the trace collector is
// shard-local).
#pragma once

#include <cstdint>
#include <vector>

#include "client/hedge_policy.h"
#include "client/location_cache.h"
#include "client/retry_policy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "mds/dirfrag.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "strategy/partition.h"
#include "workload/workload.h"

namespace mdsim {

struct ClientStats {
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_ok = 0;       // completed with success (goodput)
  std::uint64_t ops_failed = 0;
  std::uint64_t forwarded_replies = 0;  // replies that took >0 MDS hops
  std::uint64_t retries = 0;            // timeouts (e.g. a failed MDS)
  std::uint64_t stale_replies = 0;      // late/duplicate replies ignored
  std::uint64_t rejected_replies = 0;   // overload Rejected{retry_after}
  std::uint64_t retries_suppressed = 0; // retry budget dry: failed fast
  std::uint64_t giga_redirects = 0;     // stale-bitmap corrections received
  std::uint64_t hedges_fired = 0;       // backup requests sent
  std::uint64_t hedge_wins = 0;         // ops settled by the backup copy
  std::uint64_t wasted_hedges = 0;      // primary won after a hedge fired
  Summary latency_seconds;

  /// Add `o`'s counters and merge its latency summary.
  ClientStats& operator+=(const ClientStats& o);
};

class ClientCohort {
 public:
  /// A cross-shard stat target: `mds` is a shard-global address.
  struct RemoteTarget {
    NetAddr mds = kInvalidAddr;
    InodeId ino = kInvalidInode;
    std::uint32_t uid = 0;
  };

  /// One client of the cohort, addressed by index.
  struct Member {
    const ClientCohort* cohort;
    std::size_t idx;
    const ClientStats& stats() const { return cohort->stats_[idx]; }
  };

  /// Clients `first_id` .. `first_id + count - 1`; client `id` draws from
  /// Rng(seed, 0xc11e47000 + id).
  ClientCohort(Simulation& sim, Network& net, FsTree& tree,
               Workload& workload, const Partitioner& partition,
               const DirFragRegistry& dirfrag, int count, ClientId first_id,
               int num_mds, std::uint64_t seed);

  /// Attach every client's port and schedule its first operation.
  void start();

  int size() const { return static_cast<int>(ports_.size()); }
  ClientId client_id(int idx) const {
    return first_id_ + static_cast<ClientId>(idx);
  }
  NetAddr addr(int idx) const { return ports_[static_cast<std::size_t>(idx)].addr; }
  Member client(int idx) const {
    return {this, static_cast<std::size_t>(idx)};
  }

  void set_uid(int idx, std::uint32_t uid) {
    uids_[static_cast<std::size_t>(idx)] = uid;
  }

  /// Retry policy: request timeout, exponential-backoff knobs, retry
  /// budget. Unanswered requests are re-issued after the timeout (to a
  /// random node, bypassing possibly-stale location knowledge) with
  /// exponential backoff (base << attempt, capped) and deterministic
  /// jitter in [d/2, d), so a crowd of clients stranded by a dead node
  /// doesn't re-stampede it in lockstep on recovery. The rng is only
  /// consulted on retries: healthy runs draw nothing.
  void set_retry_policy(const ClientRetryParams& p) {
    retry_ = p;
    for (RetryBudget& b : budgets_) b.init(p.budget);
  }

  /// Hedged reads (hedge_policy.h): once an op class's tail estimator is
  /// warm, a read-only first attempt that has not been answered after the
  /// class's ~p99 delay fires one backup copy (same req_id) at a
  /// different node; first reply wins, the loser is discarded as stale.
  /// Off by default: the issue path arms the ordinary timeout and draws
  /// no randomness. Per-client hedge arrays are allocated only when the
  /// policy is enabled.
  void set_hedge_policy(const HedgeParams& p) {
    hedge_ = p;
    if (hedge_.enabled) {
      hedge_ests_.resize(ports_.size());
      hedge_out_.assign(ports_.size(), 0);
      primary_.assign(ports_.size(), 0);
    }
  }

  /// Enable per-request tracing: each issued op carries a pointer to its
  /// client's TraceRecord (a closed-loop client has exactly one op in
  /// flight, so one reusable record each suffices) and completed ops are
  /// ingested by the collector. Null (the default) disables tracing.
  void set_tracer(TraceCollector* tracer);

  /// Install cross-shard targets; each think-turn goes remote with
  /// probability `fraction` (when the catalog is non-empty).
  void set_remote_catalog(std::vector<RemoteTarget> catalog, double fraction);

  /// Every client's row summed, latency summaries merged in index order.
  ClientStats totals() const;
  /// Zero every client's latency summary (the warm-up reset).
  void reset_latency();
  std::uint64_t remote_ops_issued() const { return remote_issued_; }

 private:
  struct Port final : NetEndpoint {
    ClientCohort* cohort = nullptr;
    std::uint32_t idx = 0;
    NetAddr addr = kInvalidAddr;
    void on_message(NetAddr, MessagePtr msg) override {
      cohort->on_reply(idx, std::move(msg));
    }
  };
  using Fire = void (ClientCohort::*)(std::uint32_t);

  void on_reply(std::uint32_t idx, MessagePtr msg);
  void schedule_next(std::uint32_t idx);
  void begin_turn(std::uint32_t idx);
  void issue(std::uint32_t idx);
  void on_timeout(std::uint32_t idx);
  void on_retry(std::uint32_t idx);
  void on_hedge(std::uint32_t idx);
  /// Settle the in-flight op as failed and move on to the next one.
  void give_up(std::uint32_t idx);
  MdsId pick_mds(std::uint32_t idx, const Operation& op);
  /// Arm this client's one live timer, cancelling the one it supersedes.
  void arm(std::uint32_t idx, SimTime due, Fire fire);

  Simulation& sim_;
  Network& net_;
  FsTree& tree_;
  Workload& workload_;
  const Partitioner& partition_;
  const DirFragRegistry& dirfrag_;
  ClientId first_id_;
  int num_mds_;
  ClientRetryParams retry_;
  TraceCollector* tracer_ = nullptr;

  std::vector<Port> ports_;

  // Parallel per-client arrays, indexed by dense cohort index.
  std::vector<std::uint32_t> uids_;
  std::vector<Rng> rngs_;
  std::vector<ClientStats> stats_;
  std::vector<EventHandle> timers_;      // the one live timer
  std::vector<std::uint64_t> next_req_;
  std::vector<std::uint64_t> inflight_;  // req id, 0 = idle
  std::vector<SimTime> issued_at_;
  std::vector<std::int32_t> attempts_;
  /// Highest partition-map epoch seen in replies. A jump means the
  /// cluster reconfigured (takeover or partition heal): learned locations
  /// may point at superseded authorities, so the cache is flushed.
  /// Starts at 1 — healthy runs never see a jump and never flush.
  std::vector<std::uint64_t> last_epoch_;
  std::vector<Operation> pending_;       // next op, then the in-flight one
  std::vector<std::uint8_t> remote_;     // this turn targets another shard
  std::vector<std::uint32_t> remote_idx_;  // catalog index when remote
  std::vector<RetryBudget> budgets_;
  std::vector<LocationCache> locs_;
  std::vector<TraceRecord> trace_recs_;  // sized when a tracer is set

  // Hedged reads (arrays sized only when hedge_.enabled).
  HedgeParams hedge_;
  std::vector<HedgeEstimator> hedge_ests_;
  std::vector<std::uint8_t> hedge_out_;  // a backup copy is in flight
  std::vector<MdsId> primary_;           // where attempt 0 went

  std::vector<RemoteTarget> catalog_;
  double remote_fraction_ = 0.0;
  std::uint64_t remote_issued_ = 0;
};

}  // namespace mdsim
