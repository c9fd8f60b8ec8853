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
// Threading: shards within a window run on a persistent pool of worker
// threads claiming shards off an atomic counter (any shard may run on any
// thread in any order — interiors are independent, so this nondeterminism
// is invisible). The coordinator thread participates and then drains
// mailboxes serially. threads=1 bypasses the pool entirely.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace mdsim {

class ShardedSimulation {
 public:
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

  /// Worker threads used inside windows (clamped to [1, shard_count]).
  /// May be changed between run_until calls; results are identical for
  /// every value — that is the point of the design.
  void set_threads(int threads);
  int threads() const { return threads_; }

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
  void worker_loop();

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Mailbox> mail_;  // [from * S + to]
  std::uint64_t drained_ = 0;

  // Worker pool (created lazily on the first multi-threaded window).
  int threads_ = 1;
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;      // incremented to release workers
  int workers_active_ = 0;       // workers still in the current round
  bool shutdown_ = false;
  SimTime window_bound_ = 0;     // bound of the round being executed
  std::atomic<int> next_shard_{0};
  std::atomic<std::uint64_t> window_executed_{0};
};

}  // namespace mdsim
