#include "sim/simulation.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace mdsim {

void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_event(slot_, gen_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->event_pending(slot_, gen_);
}

Simulation::Simulation() = default;

Simulation::~Simulation() { std::free(heap_); }

void Simulation::heap_grow() {
  const std::size_t old_keys = heap_cap_end_ - kHeapRoot;
  const std::size_t new_keys = old_keys == 0 ? 256 : old_keys * 2;
  std::size_t bytes = (kHeapRoot + new_keys) * sizeof(HeapKey);
  bytes = (bytes + 63) & ~std::size_t{63};
  auto* grown = static_cast<HeapKey*>(std::aligned_alloc(64, bytes));
  assert(grown != nullptr);
  if (heap_ != nullptr) {
    std::memcpy(grown + kHeapRoot, heap_ + kHeapRoot,
                (heap_end_ - kHeapRoot) * sizeof(HeapKey));
    std::free(heap_);
  }
  heap_ = grown;
  heap_cap_end_ = kHeapRoot + new_keys;
}

std::uint32_t Simulation::alloc_slot() {
  // A quiescent slab (no slot occupied — note an event still executing
  // in place occupies its slot even though the heap may already be
  // empty) means the free list is a randomly-permuted chain in fire
  // order, so refilling through it is a walk of dependent cache-missing
  // loads. Rewind to sequential bump allocation instead; generations
  // live in the (retained) chunks, so stale handles still mismatch.
  if (occupied_ == 0) {
    free_head_ = kNilSlot;
    slot_count_ = 0;
  }
  ++occupied_;
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).next_free;
    return slot;
  }
  if ((slot_count_ >> kChunkShift) >= slot_chunks_.size()) {
    slot_chunks_.emplace_back(new EventSlot[kChunkSize]);
  }
  return slot_count_++;
}

void Simulation::free_slot(std::uint32_t slot) {
  --occupied_;
  EventSlot& s = slot_ref(slot);
  s.fn = InlineTask{};
  s.cancelled = false;
  ++s.gen;  // invalidate every outstanding handle to this occupancy
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulation::heap_push(HeapKey key) {
  if (heap_end_ == heap_cap_end_) heap_grow();
  std::size_t i = heap_end_++;
  if (heap_end_ > heap_peak_end_) heap_peak_end_ = heap_end_;
  while (i > kHeapRoot) {
    const std::size_t parent = heap_parent(i);
    if (!key_before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulation::sift_down(std::size_t i, HeapKey key) {
  const std::size_t end = heap_end_;
  HeapKey* h = heap_;
  for (;;) {
    const std::size_t first = heap_first_child(i);
    std::size_t best;
    if (first + 3 < end) {
      // Full fan-out (the common interior case), unrolled so the
      // min-of-four reduces to conditional moves over the one cache
      // line holding the group rather than a data-dependent loop.
      const std::size_t c1 = first + 1, c2 = first + 2, c3 = first + 3;
      best = key_before(h[c1], h[first]) ? c1 : first;
      best = key_before(h[c2], h[best]) ? c2 : best;
      best = key_before(h[c3], h[best]) ? c3 : best;
    } else if (first < end) {
      best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (key_before(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    if (!key_before(h[best], key)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = key;
}

void Simulation::heap_pop_root() {
  const HeapKey key = heap_[--heap_end_];
  if (heap_end_ == kHeapRoot) return;
  sift_down(kHeapRoot, key);
}

void Simulation::compact_heap() {
  // One pass drops every tombstone (freeing its slot, which bumps the
  // generation so its handles go inert), then a bottom-up heapify
  // rebuilds the 4-ary heap over the survivors in O(n). The executing
  // event, if any, was popped before its callback ran, so it is never
  // seen here. Since (time, seq) is a strict total order, the new heap
  // shape cannot change which event fires next.
  std::size_t out = kHeapRoot;
  for (std::size_t i = kHeapRoot; i < heap_end_; ++i) {
    const HeapKey key = heap_[i];
    if (slot_ref(key.slot).cancelled) {
      free_slot(key.slot);
    } else {
      heap_[out++] = key;
    }
  }
  heap_end_ = out;
  if (out - kHeapRoot > 1) {
    for (std::size_t i = heap_parent(out - 1); i >= kHeapRoot; --i) {
      sift_down(i, heap_[i]);
    }
  }
  ++compactions_;
}

EventHandle Simulation::schedule(SimTime delay, InlineTask fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulation::schedule_at(SimTime when, InlineTask fn) {
  const std::uint32_t slot = alloc_slot();
  EventSlot& s = slot_ref(slot);
  s.fn = std::move(fn);
  task_heap_fallbacks_ += s.fn.is_heap_fallback();
  return finish_schedule(when, slot, s.gen);
}

EventHandle Simulation::finish_schedule(SimTime when, std::uint32_t slot,
                                        std::uint32_t gen) {
  assert(when >= now_);
  heap_push(HeapKey{when, static_cast<std::uint32_t>(seq_++), slot});
  ++scheduled_;
  ++live_pending_;
  return EventHandle(this, slot, gen);
}

void Simulation::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slot_count_) return;
  EventSlot& s = slot_ref(slot);
  if (s.gen != gen || s.cancelled) return;
  s.cancelled = true;
  s.fn = InlineTask{};  // release captures eagerly
  ++cancelled_;
  --live_pending_;
  // Keep tombstones (heap keys minus live events) at most live + floor:
  // without this, a 5 s timeout cancelled 1 ms after arming holds its key
  // and slot for the full 5 s, and the heap grows with the cancel rate
  // instead of the live event count.
  const std::size_t tombstones = heap_end_ - kHeapRoot - live_pending_;
  if (tombstones > live_pending_ + kCompactFloor) compact_heap();
}

bool Simulation::event_pending(std::uint32_t slot, std::uint32_t gen) const {
  if (slot >= slot_count_) return false;
  const EventSlot& s = slot_ref(slot);
  return s.gen == gen && !s.cancelled;
}

bool Simulation::step(SimTime until) {
  while (heap_end_ > kHeapRoot) {
    const HeapKey key = heap_[kHeapRoot];
    if (key.time > until) return false;
    // Pull the slot's cache lines in while the pop sift runs; fired slots
    // are in time order, i.e. effectively random across the slab.
    EventSlot& s = slot_ref(key.slot);
    __builtin_prefetch(&s);
    heap_pop_root();
    if (s.cancelled) {
      free_slot(key.slot);
      continue;
    }
    now_ = key.time;
    --live_pending_;
    // Invoke the callback in place — chunked slots have stable addresses,
    // so callbacks scheduled by `fn` cannot move it, and the slot cannot
    // be reused while it is off the free list. Marking it cancelled first
    // makes the event's own handle read not-pending (and cancel() a
    // no-op) for the duration of the call; free_slot then destroys the
    // callable and bumps the generation.
    s.cancelled = true;
    s.fn();
    free_slot(key.slot);
    ++executed_;
    return true;
  }
  return false;
}

std::uint64_t Simulation::run_until(SimTime until) {
  std::uint64_t n = 0;
  while (step(until)) ++n;
  // Advance the clock to `until` so back-to-back runs resume correctly.
  if (until > now_) now_ = until;
  return n;
}

std::uint64_t Simulation::run() {
  std::uint64_t n = 0;
  while (step(~SimTime{0})) ++n;
  return n;
}

Simulation::Counters Simulation::counters() const {
  return Counters{scheduled_,
                  executed_,
                  cancelled_,
                  task_heap_fallbacks_,
                  compactions_,
                  heap_peak_end_ - kHeapRoot};
}

void Simulation::every(SimTime period, SimTime start,
                       InlineFunction<bool()> fn) {
  assert(period > 0);
  // The predicate is too big to nest inside another task's inline buffer,
  // so it is boxed once here (setup cost, not steady state); the box then
  // moves through the self-rescheduling chain without further allocation.
  struct Periodic {
    SimTime period;
    InlineFunction<bool()> fn;
  };
  struct Tick {
    Simulation* sim;
    std::unique_ptr<Periodic> p;
    void operator()() {
      if (p->fn()) {
        Simulation* s = sim;
        const SimTime delay = p->period;
        s->schedule(delay, Tick{s, std::move(p)});
      }
    }
  };
  schedule(start, Tick{this, std::unique_ptr<Periodic>(new Periodic{
                                 period, std::move(fn)})});
}

}  // namespace mdsim
