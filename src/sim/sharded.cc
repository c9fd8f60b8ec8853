#include "sim/sharded.h"

#include <cassert>

namespace mdsim {

ShardedSimulation::ShardedSimulation(int shards, SimTime lookahead)
    : lookahead_(lookahead) {
  assert(shards >= 1);
  assert(lookahead > 0);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Simulation>());
  }
  mail_.resize(static_cast<std::size_t>(shards) *
               static_cast<std::size_t>(shards));
}

ShardedSimulation::~ShardedSimulation() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : pool_) t.join();
  }
}

void ShardedSimulation::set_threads(int threads) {
  if (threads < 1) threads = 1;
  if (threads > shard_count()) threads = shard_count();
  threads_ = threads;
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

void ShardedSimulation::worker_loop() {
  std::uint64_t seen_round = 0;
  for (;;) {
    SimTime bound;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || round_ != seen_round; });
      if (shutdown_) return;
      seen_round = round_;
      bound = window_bound_;
    }
    std::uint64_t executed = 0;
    for (;;) {
      const int i = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (i >= shard_count()) break;
      executed += shard(i).run_until(bound);
    }
    window_executed_.fetch_add(executed, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulation::run_window(SimTime bound) {
  if (threads_ <= 1 || shard_count() == 1) {
    std::uint64_t executed = 0;
    for (int i = 0; i < shard_count(); ++i) {
      executed += shard(i).run_until(bound);
    }
    window_executed_.fetch_add(executed, std::memory_order_relaxed);
    return;
  }
  const int want = threads_ - 1;  // the coordinator participates too
  while (static_cast<int>(pool_.size()) < want) {
    pool_.emplace_back(&ShardedSimulation::worker_loop, this);
  }
  next_shard_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_bound_ = bound;
    workers_active_ = static_cast<int>(pool_.size());
    ++round_;
  }
  work_cv_.notify_all();
  std::uint64_t executed = 0;
  for (;;) {
    const int i = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (i >= shard_count()) break;
    executed += shard(i).run_until(bound);
  }
  window_executed_.fetch_add(executed, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  }
}

std::uint64_t ShardedSimulation::run_until(SimTime until) {
  const std::uint64_t before =
      window_executed_.load(std::memory_order_relaxed);
  for (;;) {
    // Barrier phase (coordinator only): ferry cross-shard messages, then
    // find the global minimum next-event time.
    drain_mailboxes();
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
  return window_executed_.load(std::memory_order_relaxed) - before;
}

std::uint64_t ShardedSimulation::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->events_executed();
  return n;
}

}  // namespace mdsim
