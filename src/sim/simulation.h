// Discrete-event simulation core.
//
// A Simulation owns a time-ordered set of (time, sequence, callback)
// events. Events scheduled for the same instant fire in scheduling order,
// which keeps runs fully deterministic. Events may be cancelled via the
// handle returned by `schedule`.
//
// The hot path is allocation-free in steady state: callbacks live in
// `InlineTask` slots inside a free-listed event slab, the priority queue
// is a 4-ary implicit heap over 16-byte {time, seq, slot} keys (sifts move
// keys, never callbacks), and handles are generation-tagged slot indices —
// no shared_ptr control block per event. Cancellation flags the slot and
// leaves a tombstone key in the heap; once tombstones outnumber live
// events by more than a fixed floor, the heap is compacted, so its size
// (and the slab's) follows the live event count rather than the cancel
// rate. See DESIGN.md §5b.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_task.h"

namespace mdsim {

class Simulation;

/// Handle to a scheduled event; allows cancellation. Trivially copyable;
/// all copies refer to the same event. A default-constructed handle is
/// inert, and a handle outliving its event (even across slot reuse) is a
/// safe no-op: the generation tag no longer matches.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not yet fired. Safe to call repeatedly.
  void cancel();
  bool pending() const;

 private:
  friend class Simulation;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulation {
 public:
  /// Event-engine health counters (surfaced via core/metrics).
  struct Counters {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    /// Events scheduled into *this* engine whose callback overflowed the
    /// inline buffer and heap-boxed (each one is an allocation the hot
    /// path was supposed to avoid). Counted per engine at schedule time
    /// by inspecting the stored callable, so the number stays exact when
    /// many engines (shards) run in one process or on one thread —
    /// unlike the old scheme of snapshotting the process-wide
    /// thread-local construction counter at engine creation.
    std::uint64_t task_heap_fallbacks = 0;
    /// Times the heap was rebuilt without its cancelled keys.
    std::uint64_t compactions = 0;
    /// High-water mark of heap keys, cancelled ones (tombstones) included.
    std::uint64_t queued_peak = 0;
  };

  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` ns from now. Returns a cancellable handle.
  /// The callable is constructed directly into its slab slot — no
  /// intermediate InlineTask materialization on the caller's stack.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineTask> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventHandle schedule(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  EventHandle schedule(SimTime delay, InlineTask fn);

  /// Schedule at an absolute time >= now().
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineTask> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventHandle schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = alloc_slot();
    EventSlot& s = slot_ref(slot);
    s.fn.emplace(std::forward<F>(fn));
    task_heap_fallbacks_ += s.fn.is_heap_fallback();
    return finish_schedule(when, slot, s.gen);
  }
  EventHandle schedule_at(SimTime when, InlineTask fn);

  /// Run until the event queue empties or simulated time reaches `until`.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime until);

  /// Run until the queue is empty. Returns events executed.
  std::uint64_t run();

  /// Execute a single event; returns false if the queue is empty or the
  /// head event is beyond `until`.
  bool step(SimTime until);

  std::uint64_t events_executed() const { return executed_; }
  /// Scheduled events that have neither fired nor been cancelled.
  std::size_t events_pending() const { return live_pending_; }

  /// No pending event (next_event_time() when the queue is empty).
  static constexpr SimTime kNoEvent = ~SimTime{0};
  /// Cancelled keys (tombstones) the heap may carry beyond the live event
  /// count before a cancel compacts it, so heap keys stay at most about
  /// 2 × live + kCompactFloor. The floor keeps tiny queues from
  /// compacting every few cancels.
  static constexpr std::size_t kCompactFloor = 256;
  /// Timestamp of the earliest queued event, or kNoEvent. May be
  /// conservatively early when the head entry was cancelled (a tombstone
  /// stays in the heap until popped or compacted away; compaction bounds
  /// how many there are, not whether one sits at the head) — callers
  /// using this as a window lower bound stay correct, at worst running an
  /// empty window.
  SimTime next_event_time() const {
    return heap_end_ > kHeapRoot ? heap_[kHeapRoot].time : kNoEvent;
  }

  Counters counters() const;

  /// Register a periodic callback fired every `period` starting at
  /// `start`; runs until the simulation stops or `fn` returns false.
  void every(SimTime period, SimTime start, InlineFunction<bool()> fn);

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// What the heap orders: 16 bytes, so a sift moves two words while the
  /// (much larger) callback stays put in the slab. `seq` is the low half
  /// of the global sequence counter; the wrap-safe comparison below is
  /// exact as long as no two co-pending events are > 2^31 schedules apart,
  /// which would require two billion simultaneously pending events.
  struct HeapKey {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(HeapKey) == 16);

  /// Slab slot: owns the callback until the event fires, is cancelled, or
  /// the engine is destroyed. `gen` increments on every free, so stale
  /// handles (and handles into reused slots) can never act on the wrong
  /// occupant. Slots live in fixed-size chunks so their addresses are
  /// stable across growth — `step` relies on this to invoke the callback
  /// in place (no 64-byte move-out) even when it schedules new events.
  struct EventSlot {
    InlineTask fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
    bool cancelled = false;
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // slots
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  EventSlot& slot_ref(std::uint32_t slot) {
    return slot_chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  const EventSlot& slot_ref(std::uint32_t slot) const {
    return slot_chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  static bool key_before(const HeapKey& a, const HeapKey& b) {
    // Branchless on purpose: sift comparisons see effectively random
    // keys, so a short-circuit here is an unpredictable branch in the
    // heap's hottest loop. `|`/`&` evaluate both legs and compile to
    // flag-setting + cmov-style code instead.
    return static_cast<int>(a.time < b.time) |
           (static_cast<int>(a.time == b.time) &
            static_cast<int>(static_cast<std::int32_t>(a.seq - b.seq) < 0));
  }

  /// The heap array is 64-byte aligned with the root at physical index
  /// 3, so every 4-child group `4i-8 .. 4i-5` starts on a multiple of 4
  /// keys — one cache line per group instead of a straddled pair.
  static constexpr std::size_t kHeapRoot = 3;
  static std::size_t heap_parent(std::size_t c) { return (c + 8) >> 2; }
  static std::size_t heap_first_child(std::size_t i) { return 4 * i - 8; }

  std::uint32_t alloc_slot();
  EventHandle finish_schedule(SimTime when, std::uint32_t slot,
                              std::uint32_t gen);
  void free_slot(std::uint32_t slot);
  void heap_push(HeapKey key);
  void sift_down(std::size_t i, HeapKey key);
  void heap_pop_root();
  void heap_grow();
  void compact_heap();

  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  bool event_pending(std::uint32_t slot, std::uint32_t gen) const;

  HeapKey* heap_ = nullptr;     // aligned; keys at [kHeapRoot, heap_end_)
  std::size_t heap_end_ = kHeapRoot;
  std::size_t heap_cap_end_ = kHeapRoot;
  std::size_t heap_peak_end_ = kHeapRoot;
  std::vector<std::unique_ptr<EventSlot[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t occupied_ = 0;  // allocated and not yet freed
  std::uint32_t free_head_ = kNilSlot;

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_pending_ = 0;
  std::uint64_t task_heap_fallbacks_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace mdsim
