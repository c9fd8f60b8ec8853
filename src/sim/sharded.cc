#include "sim/sharded.h"

#include <algorithm>
#include <cassert>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mdsim {
namespace {

using Clock = std::chrono::steady_clock;

/// One step of a busy-wait loop: lets the core know it is spinning.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Spin iterations between clock reads while waiting.
constexpr int kSpinsPerClockRead = 64;

}  // namespace

ShardedSimulation::ShardedSimulation(int shards, SimTime lookahead)
    : lookahead_(lookahead) {
  assert(shards >= 1);
  assert(lookahead > 0);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(shards));
  mail_.resize(static_cast<std::size_t>(shards) *
               static_cast<std::size_t>(shards));
  counters_.busy_ns.resize(static_cast<std::size_t>(shards));
}

ShardedSimulation::~ShardedSimulation() {
  stop_pool();
  if (!pool_started_) return;
  // Pool threads build and run shards out of their own malloc arenas, and
  // which thread takes which shard can change from run to run (a late
  // owner's home shard is stolen, the thread count changes). Memory freed
  // by one run therefore sits in arenas a later run's threads may not
  // draw, and repeated runs in one process grew peak RSS arena by arena
  // (sharded_8x8: +8% to +23% over a serial build). Once everything the
  // shards allocated is freed, hand the free pages back to the system.
  shards_.clear();
  mail_.clear();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void ShardedSimulation::set_threads(int threads) {
  threads_ = std::clamp(threads, 1, shard_count());
  if (static_cast<int>(pool_.size()) > threads_ - 1) stop_pool();
}

void ShardedSimulation::stop_pool() {
  if (pool_.empty()) return;
  shutdown_.store(true);
  {
    // Under the lock, so a worker between its predicate check and its
    // wait cannot miss the notification.
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  for (auto& t : pool_) t.join();
  pool_.clear();
  shutdown_.store(false);
}

void ShardedSimulation::post(int from, int to, SimTime when,
                             InlineTask task) {
  assert(from >= 0 && from < shard_count());
  assert(to >= 0 && to < shard_count());
  // The lookahead contract: a post lands no earlier than one full
  // lookahead after the poster's clock, so it can never be due inside
  // the window that produced it.
  assert(when >= shard(from).now() + lookahead_);
  mail_[static_cast<std::size_t>(from) *
            static_cast<std::size_t>(shard_count()) +
        static_cast<std::size_t>(to)]
      .entries.push_back(Pending{when, std::move(task)});
}

void ShardedSimulation::drain_mailboxes() {
  // Fixed drain order — destination-major, source ascending, post order —
  // so the destination engine's sequence numbers (the same-instant
  // tie-break) depend only on what was posted, never on which thread ran
  // which shard when. Safe without locks: drains happen strictly between
  // windows, when no shard is executing.
  const int s = shard_count();
  for (int to = 0; to < s; ++to) {
    for (int from = 0; from < s; ++from) {
      Mailbox& box = mail_[static_cast<std::size_t>(from) *
                               static_cast<std::size_t>(s) +
                           static_cast<std::size_t>(to)];
      if (box.entries.empty()) continue;
      Simulation& dst = shard(to);
      for (Pending& p : box.entries) {
        dst.schedule_at(p.when, std::move(p.task));
        ++drained_;
      }
      box.entries.clear();
    }
  }
}

void ShardedSimulation::run_shard(int p, int i,
                                  const std::function<void(int)>& fn) {
  Slot& slot = slots_[static_cast<std::size_t>(i)];
  if (slot.runner != p) {
    if (slot.runner >= 0) ++slot.moves;
    slot.runner = p;
  }
  fn(i);
}

void ShardedSimulation::run_claims(std::uint64_t round, int p) {
  const int shards = shard_count();
  const auto try_run = [&](int i) {
    std::atomic<std::uint64_t>& claimed =
        slots_[static_cast<std::size_t>(i)].claimed;
    // Only a tag older than `round` may be claimed. Every round claims
    // every shard, so while round R runs each tag reads R - 1 or R: a
    // claimer still on round R - 1 claims nothing, where accepting any
    // tag other than its own round would let it take (and run twice) a
    // shard of round R.
    std::uint64_t tag = claimed.load(std::memory_order_relaxed);
    if (tag >= round ||
        !claimed.compare_exchange_strong(tag, round,
                                         std::memory_order_acq_rel)) {
      return;
    }
    // The claim succeeded, so `round` is the current round, and this
    // thread's acquire of it makes job_ the round's function.
    run_shard(p, i, *job_);
    // Publishes the shard's writes to the coordinator, which reads the
    // countdown with acquire.
    unfinished_.fetch_sub(1, std::memory_order_release);
  };
  // Home shards in ascending order, then steals in descending order, so
  // a thief meets a late owner at the owner's last home shard.
  const int t = participants_.load(std::memory_order_relaxed);
  for (int i = p; i < shards; i += t) try_run(i);
  for (int i = shards - 1; i >= 0; --i) try_run(i);
}

void ShardedSimulation::worker_loop(std::uint64_t seen_round, int p) {
  const auto released = [&] {
    return shutdown_.load() || round_.load() != seen_round;
  };
  for (;;) {
    // Spin while a release is likely close, then park. parked_ is raised
    // before the predicate is checked under the lock, and the coordinator
    // stores the round before it reads parked_ (all sequentially
    // consistent), so either this worker sees the new round or the
    // coordinator sees it parked and notifies under the lock.
    const Clock::time_point spin_until = Clock::now() + kSpinBudget;
    for (int spins = 1; !released(); ++spins) {
      cpu_relax();
      if (spins % kSpinsPerClockRead != 0 || Clock::now() < spin_until) {
        continue;
      }
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_.fetch_add(1);
      if (!released()) {
        worker_parks_.fetch_add(1, std::memory_order_relaxed);
        park_cv_.wait(lock, released);
      }
      parked_.fetch_sub(1);
      break;
    }
    if (shutdown_.load()) return;
    seen_round = round_.load(std::memory_order_acquire);
    run_claims(seen_round, p);
  }
}

void ShardedSimulation::for_each_shard(const std::function<void(int)>& fn) {
  if (threads_ <= 1) {
    for (int i = 0; i < shard_count(); ++i) run_shard(0, i, fn);
    return;
  }
  while (static_cast<int>(pool_.size()) < threads_ - 1) {
    pool_.emplace_back(&ShardedSimulation::worker_loop, this, round_.load(),
                       static_cast<int>(pool_.size()) + 1);
    pool_started_ = true;
  }
  job_ = &fn;
  participants_.store(threads_, std::memory_order_relaxed);
  unfinished_.store(shard_count(), std::memory_order_relaxed);
  const std::uint64_t round = round_.load(std::memory_order_relaxed) + 1;
  round_.store(round);  // releases the round
  if (parked_.load() > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  run_claims(round, 0);

  // Every shard is claimed; wait for those still running on workers.
  // Spin first (they are usually close to done), then yield the CPU, in
  // case a worker holding a shard was descheduled.
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point spin_until = t0 + kSpinBudget;
  for (int spins = 1; unfinished_.load(std::memory_order_acquire) != 0;
       ++spins) {
    if (spins % kSpinsPerClockRead == 0 && Clock::now() >= spin_until) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  counters_.coordinator_wait_ns += ns_since(t0);
  job_ = nullptr;
}

void ShardedSimulation::run_window(SimTime bound) {
  ++counters_.windows;
  for_each_shard([this, bound](int i) {
    const Clock::time_point t0 = Clock::now();
    shard(i).run_until(bound);
    counters_.busy_ns[static_cast<std::size_t>(i)] += ns_since(t0);
  });
}

std::uint64_t ShardedSimulation::run_until(SimTime until) {
  const std::uint64_t before = events_executed();
  for (;;) {
    // Barrier phase (coordinator only): ferry cross-shard messages, then
    // find the global minimum next-event time.
    const Clock::time_point t0 = Clock::now();
    drain_mailboxes();
    counters_.drain_ns += ns_since(t0);
    SimTime m = Simulation::kNoEvent;
    for (const auto& s : shards_) {
      const SimTime t = s->next_event_time();
      if (t < m) m = t;
    }
    if (m == Simulation::kNoEvent || m > until) break;
    // Window [m, m + L): every event a shard receives from elsewhere is
    // timestamped >= its post time + L >= m + L, so executing the
    // interior up to (exclusive) m + L can never miss a cross-shard
    // message. run_until is inclusive, hence the -1 (SimTime is integer
    // nanoseconds). The final partial window is clamped to `until`,
    // which is still < m + L.
    SimTime bound = m + lookahead_ - 1;
    if (bound > until) bound = until;
    run_window(bound);
  }
  // No executable events remain at or before `until` anywhere (mailboxes
  // were drained before the loop broke): advance every clock to exactly
  // `until`, matching single-engine run_until semantics.
  for (auto& s : shards_) s->run_until(until);
  return events_executed() - before;
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->events_executed();
  return n;
}

ShardedSimulation::Counters ShardedSimulation::counters() const {
  Counters c = counters_;
  c.worker_parks = worker_parks_.load(std::memory_order_relaxed);
  for (int i = 0; i < shard_count(); ++i) {
    c.shard_moves += slots_[static_cast<std::size_t>(i)].moves;
  }
  return c;
}

}  // namespace mdsim
