// Conservative synchronous parallel discrete-event simulation.
//
// A ShardedSimulation owns S independent Simulation engines ("shards").
// Shards advance in lockstep windows: each round the coordinator computes
// the global minimum next-event time M and every shard executes its own
// events in [M, M + L) where L is the *lookahead* — the minimum latency of
// any cross-shard interaction (for the cluster simulator: the network's
// base cross-shard link latency). During a window a shard touches only its
// own engine and state; anything bound for another shard is posted into a
// single-producer per-(src,dst) mailbox with an absolute delivery time,
// which the lookahead guarantees is >= the window end. Mailboxes are
// drained by the coordinator at the barrier between windows, in a fixed
// order (destination-major, then source shard ascending, then post order),
// so drained events acquire destination-engine sequence numbers — and
// therefore same-instant tie-break order — that is a pure function of the
// simulation, not of thread scheduling. Shard interiors are sequential
// single-engine execution. Net effect: a run is bit-identical for any
// thread count, including 1. See DESIGN.md §5f for the safety argument.
//
// Threading: one persistent pool, one primitive. for_each_shard(fn) runs
// fn(i) once per shard on threads() threads — threads() - 1 pooled workers
// plus the calling (coordinator) thread — each claiming shards off an
// atomic counter. Any shard may run on any thread in any order; shard
// interiors are independent, so that nondeterminism is invisible. Windows
// use it to run every shard up to the window bound, and ShardedClusterSim
// uses it to build the shards in parallel (a build touches only its own
// shard). threads=1 bypasses the pool entirely. An engine whose pool ran
// hands the allocator's free pages back to the system when it is
// destroyed (see the destructor for why).
//
// Handoff: the coordinator releases a round with one atomic store of the
// round-tagged claim counter and then waits on an atomic countdown of the
// round's unfinished shards. An idle worker spins on the claim counter for
// kSpinBudget and only then parks on a condition variable; the
// coordinator takes the lock and notifies only when some worker is parked.
// Claims carry the round tag, so a worker that wakes late can never claim
// a shard of a round it did not see released, and the coordinator never
// waits for a worker that has nothing left to claim. The barrier phase —
// mailbox drain and the minimum next-event scan — stays on the
// coordinator. See DESIGN.md §5f.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace mdsim {

class ShardedSimulation {
 public:
  /// Where a run's wall time went, window by window. Always on: a few
  /// steady-clock reads per window.
  struct Counters {
    std::uint64_t windows = 0;       // lockstep windows executed
    std::uint64_t worker_parks = 0;  // times a worker slept on the condvar
    /// Coordinator time between running out of shards to claim and the
    /// round's last shard finishing, over every for_each_shard round
    /// (the windows and, in a cluster run, the parallel build).
    std::uint64_t coordinator_wait_ns = 0;
    std::uint64_t drain_ns = 0;  // serial mailbox drain at the barriers
    std::vector<std::uint64_t> busy_ns;  // per shard: time inside windows
  };

  /// How long an idle worker spins on the claim counter before it parks.
  /// A worker idles for the rest of the window (the window span minus its
  /// own shards' work) plus the coordinator's barrier phase. On
  /// sharded_8x8 windows span ~560 µs and the barrier ~10 µs, so 250 µs
  /// covers a typical idle stretch inside a run, while a pool left idle
  /// between runs parks after a quarter of a millisecond.
  static constexpr std::chrono::nanoseconds kSpinBudget{250'000};

  /// `lookahead` must be positive and no larger than the minimum possible
  /// delivery delay of any cross-shard post (callers wire it from the
  /// network's cross-shard base latency).
  ShardedSimulation(int shards, SimTime lookahead);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulation& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Simulation& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }
  SimTime lookahead() const { return lookahead_; }

  /// Threads that run shards (clamped to [1, shard_count]), the caller's
  /// included. May be changed between run_until calls; results are
  /// identical for every value — that is the point of the design. A
  /// lowered count retires the surplus workers.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Run fn(i) once for every shard i on threads() threads, the caller
  /// taking part, and return when every call has returned. Calls for
  /// different shards may run concurrently, so fn(i) may touch only
  /// shard i's state. Call from one thread at a time, never from inside
  /// fn.
  void for_each_shard(const std::function<void(int)>& fn);

  /// Post `task` for execution in shard `to`'s engine at absolute time
  /// `when`. Must be called from shard `from`'s interior (its window
  /// execution) with when >= the current window end — guaranteed when the
  /// posting layer adds >= lookahead() of latency. The task runs on
  /// whatever thread executes shard `to`, never concurrently with other
  /// work of that shard.
  void post(int from, int to, SimTime when, InlineTask task);

  /// Advance every shard to `until` in lockstep windows. Semantics match
  /// Simulation::run_until per shard: events with time <= until execute,
  /// clocks end at exactly `until`. Returns total events executed.
  std::uint64_t run_until(SimTime until);

  /// Cross-shard messages ferried so far (drained mailbox entries).
  std::uint64_t cross_posts() const { return drained_; }

  std::uint64_t events_executed() const;

  Counters counters() const;

 private:
  struct Pending {
    SimTime when;
    InlineTask task;
  };
  /// One single-producer mailbox per (src, dst) pair; only shard `src`'s
  /// window execution appends, only the coordinator (at a barrier) drains.
  struct Mailbox {
    std::vector<Pending> entries;
  };

  void drain_mailboxes();
  void run_window(SimTime bound);
  /// Claim and run shards of `round` until none is left or the round has
  /// moved on.
  void run_claims(std::uint64_t round);
  void worker_loop(std::uint64_t seen_round);
  void stop_pool();

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Mailbox> mail_;  // [from * S + to]
  std::uint64_t drained_ = 0;
  Counters counters_;

  // Worker pool (created lazily on the first multi-threaded round).
  int threads_ = 1;
  bool pool_started_ = false;  // some round ran on pool threads
  /// The round's shard function; written by the coordinator before the
  /// round is released, read by claimers after a successful claim.
  const std::function<void(int)>* job_ = nullptr;
  /// Round tag (high 32 bits) and next unclaimed shard (low 32 bits).
  /// Releasing round r stores r << 32; a claim is a compare-exchange that
  /// fails once the tag no longer matches the claimer's round.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<int> unfinished_{0};  // shards of the round still running
  std::atomic<bool> shutdown_{false};
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::mutex park_mu_;  // guards parking on park_cv_ only
  std::condition_variable park_cv_;
  std::vector<std::thread> pool_;  // last: workers use every member above
};

}  // namespace mdsim
