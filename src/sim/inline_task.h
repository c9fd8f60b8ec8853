// Move-only callable wrapper with fixed inline storage.
//
// The event engine stores every callback in an `InlineFunction`: a 64-byte
// buffer absorbs the capture lists the simulator actually produces (a few
// pointers, a unique_ptr message, small PODs) without touching the heap.
// Oversized callables still work — they are boxed on the heap — but every
// such construction bumps a thread-local counter so perf regressions show
// up in `Simulation::counters().task_heap_fallbacks` instead of silently
// re-introducing an allocation per event.
//
// Unlike std::function the wrapper is move-only, so unique_ptr captures
// need no shared_ptr shim; invocation is one indirect call through a
// per-callable-type ops table (no virtual dispatch, no RTTI).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mdsim {

namespace inline_task_stats {
/// Constructions that overflowed the inline buffer and heap-allocated.
/// Thread-local so concurrent shard engines never contend; a process-wide
/// running total for microbenchmarks. Engines that need an exact per-engine
/// count (Simulation::Counters) do not sample this — they ask each stored
/// callable via is_heap_fallback(), which stays correct when many engines
/// share a thread or one engine constructs tasks from several threads'
/// worth of callers over its life.
inline thread_local std::uint64_t heap_fallbacks = 0;
}  // namespace inline_task_stats

template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = 64;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(f));
  }

  /// Destroy any held callable and construct `f` in place. The event slab
  /// uses this to build callbacks directly in their slot, skipping the
  /// temporary-InlineFunction-then-move (a 64-byte copy per event).
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  // (Moves and destruction of the common captures — a few pointers, PODs —
  // take branch-predictable fast paths: a whole-buffer memcpy instead of an
  // indirect relocate call, and no destroy call at all. Only callables that
  // are not trivially copyable/destructible pay the ops-table dispatch.)

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    assert(ops_ != nullptr);
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the held callable overflowed the inline buffer and lives
  /// in a heap box. A static property of the callable's type, read from
  /// its ops table — no per-instance storage.
  bool is_heap_fallback() const noexcept {
    return ops_ != nullptr && ops_->heap;
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    /// Move-construct the callable into `dst` and destroy the `src` copy.
    /// Null when a whole-buffer memcpy is a correct relocation: the
    /// callable is trivially copyable and not empty (nothing ever writes
    /// an empty callable's buffer, so copying it would read indeterminate
    /// bytes).
    void (*relocate)(void* src, void* dst) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* buf) noexcept;
    /// Callable is heap-boxed (construction overflowed the inline buffer).
    bool heap;
  };

  template <typename Fn>
  struct InlineModel {
    static Fn* self(void* buf) {
      return std::launder(reinterpret_cast<Fn*>(buf));
    }
    static R invoke(void* buf, Args&&... args) {
      return (*self(buf))(std::forward<Args>(args)...);
    }
    static void relocate(void* src, void* dst) noexcept {
      Fn* s = self(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* buf) noexcept { self(buf)->~Fn(); }
    static constexpr Ops kOps{
        &invoke,
        std::is_trivially_copyable_v<Fn> && !std::is_empty_v<Fn>
            ? nullptr
            : &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy,
        /*heap=*/false};
  };

  template <typename Fn>
  struct HeapModel {
    static Fn** box(void* buf) {
      return std::launder(reinterpret_cast<Fn**>(buf));
    }
    static R invoke(void* buf, Args&&... args) {
      return (**box(buf))(std::forward<Args>(args)...);
    }
    static void destroy(void* buf) noexcept { delete *box(buf); }
    // The boxed representation is a raw pointer, so relocation is always
    // a trivial copy; only destruction needs the ops table.
    static constexpr Ops kOps{&invoke, nullptr, &destroy, /*heap=*/true};
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineModel<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapModel<Fn>::kOps;
      ++inline_task_stats::heap_fallbacks;
    }
  }

  void take(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate == nullptr) {
        __builtin_memcpy(buf_, other.buf_, kInlineSize);
      } else {
        other.ops_->relocate(other.buf_, buf_);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// The event engine's callback type.
using InlineTask = InlineFunction<void()>;

}  // namespace mdsim
