#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/queue_server.h"
#include "sim/simulation.h"

namespace mdsim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SameTimeFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen = 0;
  sim.schedule(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(sim.now(), 42u);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  EventHandle h = sim.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int runs = 0;
  EventHandle h = sim.schedule(1, [&] { ++runs; });
  sim.run();
  h.cancel();
  EXPECT_EQ(runs, 1);
}

TEST(Simulation, EveryRepeatsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.every(10, 10, [&] { return ++ticks < 5; });
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulation, EventCountTracked) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulation, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or touch any simulation
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, StaleHandleCannotCancelSlotReuser) {
  Simulation sim;
  bool first = false;
  bool second = false;
  EventHandle h1 = sim.schedule(1, [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(h1.pending());
  // The next event reuses h1's freed slot; the stale handle's generation
  // no longer matches, so it must not act on the new occupant.
  EventHandle h2 = sim.schedule(1, [&] { second = true; });
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(second);
  EXPECT_EQ(sim.counters().cancelled, 0u);
}

TEST(Simulation, HandleInertDuringOwnExecution) {
  Simulation sim;
  EventHandle h;
  bool pending_inside = true;
  h = sim.schedule(5, [&] {
    pending_inside = h.pending();
    h.cancel();  // cancelling the event from inside itself is a no-op
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  const auto c = sim.counters();
  EXPECT_EQ(c.fired, 1u);
  EXPECT_EQ(c.cancelled, 0u);
}

TEST(Simulation, CancelTwiceCountsOnce) {
  Simulation sim;
  EventHandle h = sim.schedule(10, [] {});
  h.cancel();
  h.cancel();
  sim.run();
  const auto c = sim.counters();
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.fired, 0u);
}

TEST(Simulation, CountersTrackLifecycle) {
  Simulation sim;
  const auto c0 = sim.counters();
  EXPECT_EQ(c0.scheduled, 0u);
  EXPECT_EQ(c0.fired, 0u);
  EXPECT_EQ(c0.cancelled, 0u);
  EXPECT_EQ(c0.task_heap_fallbacks, 0u);

  EventHandle doomed = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  sim.schedule(30, [] {});
  doomed.cancel();
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();

  const auto c = sim.counters();
  EXPECT_EQ(c.scheduled, 3u);
  EXPECT_EQ(c.fired, 2u);
  EXPECT_EQ(c.cancelled, 1u);
  // Every capture above fits the inline buffer: the steady-state promise.
  EXPECT_EQ(c.task_heap_fallbacks, 0u);
}

TEST(Simulation, OversizedCaptureFallsBackToHeapAndCounts) {
  Simulation sim;
  struct Big {
    char pad[InlineTask::kInlineSize + 64];
  };
  Big big{};
  big.pad[0] = 7;
  char seen = 0;
  sim.schedule(1, [big, &seen] { seen = big.pad[0]; });
  EXPECT_EQ(sim.counters().task_heap_fallbacks, 1u);
  sim.run();
  EXPECT_EQ(seen, 7);  // oversized callables still work, just slower
}

TEST(Simulation, HeapFallbacksAttributedToTheSchedulingEngine) {
  // Two engines on one thread (the sharded-cluster shape): each engine's
  // counter must reflect only its own events, not a process-wide total.
  Simulation a, b;
  struct Big {
    char pad[InlineTask::kInlineSize + 64];
  };
  Big big{};
  a.schedule(1, [big] { (void)big.pad; });
  b.schedule(1, [] {});
  EXPECT_EQ(a.counters().task_heap_fallbacks, 1u);
  EXPECT_EQ(b.counters().task_heap_fallbacks, 0u);
  a.run();
  b.run();
}

TEST(Simulation, MoveOnlyCaptureSupported) {
  Simulation sim;
  auto p = std::make_unique<int>(41);
  int got = 0;
  sim.schedule(1, [p = std::move(p), &got] { got = *p + 1; });
  sim.run();
  EXPECT_EQ(got, 42);
}

TEST(Simulation, SameInstantFifoSurvivesInterleavedCancels) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule(5, [&order, i] { order.push_back(i); }));
  }
  handles[2].cancel();
  handles[5].cancel();
  handles[7].cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 6, 8, 9}));
}

TEST(Simulation, RunUntilBoundaryIsInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.run_until(9);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 9u);
  sim.run_until(10);  // an event exactly at `until` fires
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulation, StepExecutesExactlyOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1, [&] { ++fired; });
  sim.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step(~SimTime{0}));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(~SimTime{0}));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step(~SimTime{0}));
}

TEST(Simulation, EveryHonoursStartOffset) {
  Simulation sim;
  std::vector<SimTime> ticks;
  sim.every(10, 3, [&] {
    ticks.push_back(sim.now());
    return ticks.size() < 3;
  });
  sim.run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{3, 13, 23}));
}

TEST(Simulation, SchedulingFromCallbackReusesSlabSafely) {
  // Deep chains churn slot reuse and chunk growth; the sum proves every
  // link ran exactly once with its capture intact.
  Simulation sim;
  int sum = 0;
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) return;
    sim.schedule(1, [&, depth] {
      sum += depth;
      spawn(depth - 1);
    });
  };
  spawn(600);  // deeper than two slot chunks
  sim.run();
  EXPECT_EQ(sum, 600 * 601 / 2);
  EXPECT_EQ(sim.counters().fired, 600u);
}

// --- Tombstone compaction -----------------------------------------------
// Cancelled events leave tombstone keys in the heap; once they outnumber
// live events by more than Simulation::kCompactFloor, a cancel rebuilds
// the heap without them. None of this may be visible in fire order.

TEST(SimulationCompaction, RandomCancelStreamMatchesTimeSeqOracle) {
  // Schedules (many at shared instants), cancels and steps drawn at
  // random, checked against a (time, schedule-order) oracle after every
  // step. Long-delay events that are mostly cancelled keep the tombstone
  // count high, so the heap compacts many times along the way.
  Simulation sim;
  std::mt19937 rng(12345);
  struct Ev {
    SimTime time;
    int id;
    EventHandle h;
  };
  std::vector<Ev> live;  // unordered; swap-removed
  std::set<std::pair<SimTime, int>> oracle;
  int next_id = 0;
  int last_fired = -1;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  auto remove_live = [&](int id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].id == id) {
        live[i] = live.back();
        live.pop_back();
        return;
      }
    }
    FAIL() << "event " << id << " not live";
  };
  for (int round = 0; round < 60000; ++round) {
    const std::uint32_t r = rng() % 100;
    if (r < 45) {
      // Few distinct instants: same-time ties are common.
      const bool long_timer = rng() % 2 == 0;
      const SimTime delay =
          long_timer ? 5000 + 10 * (rng() % 8) : 5 * (rng() % 6);
      const int id = next_id++;
      const SimTime when = sim.now() + delay;
      EventHandle h = sim.schedule(delay, [&, id, when] {
        ASSERT_FALSE(oracle.empty());
        EXPECT_EQ(*oracle.begin(), std::make_pair(when, id));
        EXPECT_EQ(sim.now(), when);
        oracle.erase(oracle.begin());
        remove_live(id);
        last_fired = id;
        ++fired;
      });
      live.push_back(Ev{when, id, h});
      oracle.emplace(when, id);
    } else if (r < 80) {
      if (live.empty()) continue;
      const std::size_t i = rng() % live.size();
      EXPECT_TRUE(live[i].h.pending());
      live[i].h.cancel();
      EXPECT_FALSE(live[i].h.pending());
      oracle.erase({live[i].time, live[i].id});
      live[i] = live.back();
      live.pop_back();
      ++cancelled;
    } else if (r < 95) {
      // Time creeps forward, so long timers stay queued (and, once
      // cancelled, stay tombstones) for thousands of rounds.
      const int before = last_fired;
      if (sim.step(sim.now() + 30)) {
        EXPECT_NE(last_fired, before);
      }
    } else {
      sim.run_until(sim.now() + 10);
    }
    ASSERT_EQ(sim.events_pending(), oracle.size());
  }
  sim.run();
  EXPECT_TRUE(oracle.empty());
  const auto c = sim.counters();
  EXPECT_EQ(c.fired, fired);
  EXPECT_EQ(c.cancelled, cancelled);
  EXPECT_EQ(c.scheduled, static_cast<std::uint64_t>(next_id));
  EXPECT_GE(c.compactions, 20u);
}

TEST(SimulationCompaction, CancelsInsideCallbackCompactMidStep) {
  Simulation sim;
  std::vector<EventHandle> timeouts;
  int timeouts_fired = 0;
  for (int i = 0; i < 1000; ++i) {
    timeouts.push_back(sim.schedule(5000 + i, [&] { ++timeouts_fired; }));
  }
  std::vector<int> order;
  EventHandle self;
  std::uint64_t compactions_inside = 0;
  self = sim.schedule(10, [&] {
    for (EventHandle& h : timeouts) h.cancel();
    compactions_inside = sim.counters().compactions;
    // The running event was off the heap when it compacted: its handle
    // still reads not-pending, and new events fire in (time, seq) order.
    EXPECT_FALSE(self.pending());
    sim.schedule(5, [&] { order.push_back(2); });
    sim.schedule(0, [&] { order.push_back(1); });
    sim.schedule(5, [&] { order.push_back(3); });
  });
  sim.schedule(10, [&] { order.push_back(0); });
  sim.run();
  EXPECT_GE(compactions_inside, 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(timeouts_fired, 0);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.counters().fired, 5u);
}

TEST(SimulationCompaction, CompactedSlotHandleIsInertForNextOccupant) {
  Simulation sim;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 600; ++i) doomed.push_back(sim.schedule(100, [] {}));
  for (EventHandle& h : doomed) h.cancel();
  ASSERT_GE(sim.counters().compactions, 1u);
  for (const EventHandle& h : doomed) EXPECT_FALSE(h.pending());
  // Refill the freed slots, then replay every stale cancel: none may
  // reach a new occupant.
  int fired = 0;
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 600; ++i) {
    fresh.push_back(sim.schedule(50, [&] { ++fired; }));
  }
  const std::uint64_t cancelled_before = sim.counters().cancelled;
  for (EventHandle& h : doomed) h.cancel();
  EXPECT_EQ(sim.counters().cancelled, cancelled_before);
  for (const EventHandle& h : fresh) EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 600);
}

TEST(SimulationCompaction, EveryChainAndNextEventTimeSurviveCompaction) {
  Simulation sim;
  std::vector<SimTime> ticks;
  sim.every(10, 10, [&] {
    ticks.push_back(sim.now());
    return true;
  });
  // Early tombstones sit ahead of the first tick; late ones behind it.
  std::vector<EventHandle> early, late;
  for (int i = 0; i < 300; ++i) early.push_back(sim.schedule(5, [] {}));
  for (int i = 0; i < 300; ++i) late.push_back(sim.schedule(1000000, [] {}));
  EXPECT_EQ(sim.next_event_time(), 5u);
  for (EventHandle& h : early) h.cancel();
  for (EventHandle& h : late) h.cancel();
  ASSERT_GE(sim.counters().compactions, 1u);
  // The compaction ran after every early cancel, so the head is live.
  EXPECT_EQ(sim.next_event_time(), 10u);
  sim.run_until(55);
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30, 40, 50}));
  EXPECT_EQ(sim.next_event_time(), 60u);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(SimulationCompaction, ClientTimeoutPatternKeepsHeapNearLive) {
  // The client hold model: each client arms a 5 s request timeout,
  // receives its reply ~1 ms later, cancels the timeout and issues the
  // next request. Lazy cancellation alone would carry every timeout
  // armed in the last 5 s (~500 k keys here); compaction keeps the heap
  // within 2 × live + floor.
  constexpr int kClients = 100;
  constexpr SimTime kTimeout = 5 * kSecond;
  Simulation sim;
  struct ClientModel {
    Simulation* sim;
    EventHandle timeout;
    std::uint64_t ops = 0;
    int timeouts = 0;
    void issue(SimTime reply_after) {
      timeout = sim->schedule(kTimeout, [this] { ++timeouts; });
      sim->schedule(reply_after, [this] { on_reply(); });
    }
    void on_reply() {
      timeout.cancel();
      ++ops;
      issue(kMillisecond + (ops * 7919) % 500 * kMicrosecond);
    }
  };
  std::vector<ClientModel> clients(kClients, ClientModel{&sim, {}, 0, 0});
  for (int i = 0; i < kClients; ++i) {
    clients[static_cast<std::size_t>(i)].issue(
        kMillisecond + static_cast<SimTime>(i) * kMicrosecond);
  }
  std::size_t max_live = 0;
  sim.every(10 * kMillisecond, 0, [&] {
    max_live = std::max(max_live, sim.events_pending());
    return true;
  });
  sim.run_until(kTimeout + kSecond);
  std::uint64_t ops = 0;
  for (const ClientModel& c : clients) {
    EXPECT_EQ(c.timeouts, 0);
    ops += c.ops;
  }
  EXPECT_GT(ops, 400000u);
  const auto c = sim.counters();
  EXPECT_GT(c.compactions, 0u);
  // Live events: one timeout and one reply per client, plus the sampler.
  EXPECT_LE(max_live, 2u * kClients + 1);
  EXPECT_LE(c.queued_peak,
            2u * (2 * kClients + 1) + Simulation::kCompactFloor);
}

// --- QueueServer --------------------------------------------------------

TEST(QueueServer, SerializesJobs) {
  Simulation sim;
  QueueServer q(sim, "disk");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    q.submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(q.jobs_completed(), 3u);
}

TEST(QueueServer, AccessLatencyOutsideSerialization) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.set_access_latency(50);
  std::vector<SimTime> completions;
  q.submit(100, [&] { completions.push_back(sim.now()); });
  q.submit(100, [&] { completions.push_back(sim.now()); });
  sim.run();
  // Service ends at 100 and 200; each completion shifted by the latency.
  EXPECT_EQ(completions, (std::vector<SimTime>{150, 250}));
}

TEST(QueueServer, ThroughputBoundedByServiceTime) {
  Simulation sim;
  QueueServer q(sim, "cpu");
  int done = 0;
  // Offer far more work than one second of capacity at 1ms/job.
  for (int i = 0; i < 5000; ++i) {
    q.submit(kMillisecond, [&] { ++done; });
  }
  sim.run_until(kSecond);
  EXPECT_EQ(done, 1000);
}

TEST(QueueServer, UtilizationReflectsBusyTime) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.submit(400, [] {});
  sim.run_until(1000);
  EXPECT_NEAR(q.utilization(sim.now()), 0.4, 1e-9);
}

TEST(QueueServer, WaitTimesRecorded) {
  Simulation sim;
  QueueServer q(sim, "disk");
  q.submit(from_seconds(1), [] {});
  q.submit(from_seconds(1), [] {});
  sim.run();
  EXPECT_EQ(q.wait_times().count(), 2u);
  EXPECT_DOUBLE_EQ(q.wait_times().min(), 0.0);
  EXPECT_NEAR(q.wait_times().max(), 1.0, 1e-9);
}

TEST(QueueServer, ResubmissionFromCompletionQueuesBehind) {
  Simulation sim;
  QueueServer q(sim, "disk");
  std::vector<int> order;
  q.submit(10, [&] {
    order.push_back(1);
    q.submit(10, [&] { order.push_back(3); });
  });
  q.submit(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(QueueServer, MoveOnlyCompletionSupported) {
  Simulation sim;
  QueueServer q(sim, "disk");
  auto payload = std::make_unique<int>(5);
  int got = 0;
  q.submit(10, [p = std::move(payload), &got] { got = *p; });
  sim.run();
  EXPECT_EQ(got, 5);
}

}  // namespace
}  // namespace mdsim
