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
// plus the calling (coordinator) thread. Participant p (the coordinator is
// 0, worker k is k + 1) first claims its home shards p, p + T, p + 2T, …
// (T = threads()) and then steals shards nobody has claimed yet, so a
// shard keeps its core, and its working set that core's cache, from round
// to round unless its owner is late. Which thread runs a shard is still
// nondeterministic, but shard interiors are independent, so that is
// invisible. Windows use it to run every shard up to the window bound,
// and ShardedClusterSim uses it to build the shards in parallel (a build
// touches only its own shard). threads=1 bypasses the pool entirely, and
// its one participant is the coordinator. An engine whose pool ran
// hands the allocator's free pages back to the system when it is
// destroyed (see the destructor for why).
//
// Handoff: the coordinator releases a round with one atomic store of the
// round number and then waits on an atomic countdown of the round's
// unfinished shards. An idle worker spins on the round number for
// kSpinBudget and only then parks on a condition variable; the
// coordinator takes the lock and notifies only when some worker is parked.
// Each shard carries the last round that claimed it, and a claim for
// round r succeeds only from a tag older than r, so a worker that wakes
// late can never claim a shard of a round it did not see released, and
// the coordinator never waits for a worker that has nothing left to
// claim. The barrier phase — mailbox drain and the minimum next-event
// scan — stays on the coordinator. See DESIGN.md §5f.
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
    /// Rounds in which a shard ran on a different participant than in
    /// its previous round, summed over shards. A shard moves when a
    /// thief takes it from a late owner and again when it goes home; a
    /// run that stays at one thread never moves one.
    std::uint64_t shard_moves = 0;
    std::vector<std::uint64_t> busy_ns;  // per shard: time inside windows
  };

  /// How long an idle worker spins on the round number before it parks.
  /// A worker idles for the rest of the window (the window span minus its
  /// own shards' work) plus the coordinator's barrier phase. On
  /// sharded_8x8 at 4 threads, 4 995 windows take 1.4–2.1 s (280–420 µs
  /// each) on a 4-CPU host and the barrier ~10 µs, so 250 µs
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

  /// Per-shard claim state, one cache line each so that claims of
  /// different shards do not contend.
  struct alignas(64) Slot {
    /// The last round that claimed this shard. Round r claims it with a
    /// compare-exchange from a tag older than r; a claimer whose round
    /// has moved on finds every tag at its round or newer.
    std::atomic<std::uint64_t> claimed{0};
    int runner = -1;  // participant that ran it last; -1 before any round
    std::uint64_t moves = 0;  // Counters::shard_moves, this shard's share
  };

  void drain_mailboxes();
  void run_window(SimTime bound);
  /// Run shard i as participant p: note a move, then fn(i).
  void run_shard(int p, int i, const std::function<void(int)>& fn);
  /// As participant p, claim and run p's home shards of `round`, then
  /// steal any shard still unclaimed; return once every shard is claimed
  /// or the round has moved on.
  void run_claims(std::uint64_t round, int p);
  void worker_loop(std::uint64_t seen_round, int p);
  void stop_pool();

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::unique_ptr<Slot[]> slots_;  // [shard]
  std::vector<Mailbox> mail_;  // [from * S + to]
  std::uint64_t drained_ = 0;
  Counters counters_;

  // Worker pool (created lazily on the first multi-threaded round).
  int threads_ = 1;
  bool pool_started_ = false;  // some round ran on pool threads
  /// The round's shard function; written by the coordinator before the
  /// round is released, read by claimers after a successful claim.
  const std::function<void(int)>* job_ = nullptr;
  /// The latest released round; storing r releases round r. Rounds
  /// start at 1, so every Slot::claimed tag starts older than the first.
  std::atomic<std::uint64_t> round_{0};
  /// The round's participant count T, which places the home shards.
  /// Atomic because a worker that wakes late reads it while the
  /// coordinator may already be writing the next round's.
  std::atomic<int> participants_{1};
  std::atomic<int> unfinished_{0};  // shards of the round still running
  std::atomic<bool> shutdown_{false};
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> worker_parks_{0};
  std::mutex park_mu_;  // guards parking on park_cv_ only
  std::condition_variable park_cv_;
  std::vector<std::thread> pool_;  // last: workers use every member above
};

}  // namespace mdsim
