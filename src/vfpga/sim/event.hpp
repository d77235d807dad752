// Pooled event nodes and the small-buffer callable they carry.
//
// The event core runs millions of simulated packets per wall second, so
// the per-event costs that a std::function + std::priority_queue design
// pays on every hot-path operation — one heap allocation for the
// callable, one more when the queue's vector of fat entries grows, and a
// type-erased copy on pop — are exactly the costs this header removes:
//
//  * SmallFn: a move-only type-erased `void()` callable with 48 bytes of
//    inline storage. Every capture the scheduler and lane messages use
//    (a couple of pointers plus a timestamp) fits inline; larger
//    captures still work but fall back to the heap and are counted, so
//    a steady-state test can assert the hot path allocates nothing.
//  * Event / EventArena: intrusive scheduler nodes recycled through a
//    chunked free list. Once the pool is warm, schedule/run cycles touch
//    no allocator at all — node acquisition is a pointer pop.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vfpga/common/types.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {

/// Move-only `void()` callable with small-buffer storage. Captures up to
/// kInlineBytes (and alignment <= kInlineAlign) live inside the object;
/// anything bigger is heap-allocated and counted via heap_allocations(),
/// which steady-state tests pin to zero for scheduler/timer workloads.
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;
  static constexpr std::size_t kInlineAlign = 16;

  SmallFn() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  SmallFn(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  SmallFn(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    ops_ = ops_for<Fn>();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
    } else {
      heap_ = new Fn(std::forward<F>(f));
      heap_allocs().fetch_add(1, std::memory_order_relaxed);
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(target()); }

  /// Process-wide count of captures that missed the inline buffer.
  [[nodiscard]] static u64 heap_allocations() {
    return heap_allocs().load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Move-construct src's target at dst and destroy src; null for
    /// heap-stored targets (those relocate by pointer steal).
    void (*relocate)(void* dst, void* src);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static const Ops* ops_for() {
    if constexpr (fits_inline<Fn>()) {
      static constexpr Ops ops{
          [](void* p) { (*static_cast<Fn*>(p))(); },
          [](void* p) { static_cast<Fn*>(p)->~Fn(); },
          [](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          }};
      return &ops;
    } else {
      static constexpr Ops ops{[](void* p) { (*static_cast<Fn*>(p))(); },
                               [](void* p) { delete static_cast<Fn*>(p); },
                               nullptr};
      return &ops;
    }
  }

  [[nodiscard]] void* target() {
    return ops_->relocate != nullptr ? static_cast<void*>(inline_) : heap_;
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(target());
      ops_ = nullptr;
      heap_ = nullptr;
    }
  }

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(inline_, other.inline_);
    } else {
      heap_ = other.heap_;
      other.heap_ = nullptr;
    }
    other.ops_ = nullptr;
  }

  static std::atomic<u64>& heap_allocs() {
    static std::atomic<u64> count{0};
    return count;
  }

  alignas(kInlineAlign) std::byte inline_[kInlineBytes];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

/// Intrusive scheduler event node. Lives in an EventArena chunk for its
/// whole lifetime; `next_free` threads the arena's free list while the
/// node is idle.
struct Event {
  SimTime when{};
  u64 seq = 0;
  SmallFn fn;
  Event* next_free = nullptr;
};

/// Chunked pool of Event nodes. Acquire pops the free list (or carves a
/// fresh chunk when the pool is dry); release pushes the node back.
/// Chunks are never returned to the allocator while the arena lives, so
/// a steady-state workload reaches a high-water mark and then performs
/// zero allocations per event — `node_allocations()` is the regression
/// probe for that claim.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  [[nodiscard]] Event* acquire() {
    if (free_ == nullptr) {
      grow();
    }
    Event* node = free_;
    free_ = node->next_free;
    node->next_free = nullptr;
    ++live_;
    return node;
  }

  void release(Event* node) {
    node->fn = nullptr;
    node->next_free = free_;
    free_ = node;
    --live_;
  }

  /// Total Event nodes ever carved from chunks (the pool's high-water
  /// mark) — constant once the workload reaches steady state.
  [[nodiscard]] u64 node_allocations() const { return node_allocations_; }
  [[nodiscard]] u64 live() const { return live_; }

 private:
  static constexpr std::size_t kChunkEvents = 256;

  void grow() {
    chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
    Event* chunk = chunks_.back().get();
    for (std::size_t i = kChunkEvents; i-- > 0;) {
      chunk[i].next_free = free_;
      free_ = &chunk[i];
    }
    node_allocations_ += kChunkEvents;
  }

  std::vector<std::unique_ptr<Event[]>> chunks_;
  Event* free_ = nullptr;
  u64 node_allocations_ = 0;
  u64 live_ = 0;
};

}  // namespace vfpga::sim
