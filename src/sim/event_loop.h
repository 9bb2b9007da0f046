// Single-threaded discrete-event loop driving the whole virtualization
// environment. Components charge virtual time with AdvanceBy() for work that
// happens "inline" (hypercalls, memory copies) and Post() deferred work for
// asynchronous activity (daemon wakeups, packet delivery, timers).
//
// Posting and running an event does not allocate for ordinary captures:
// the callback is an EventCallback with inline storage, it lives in a
// recycled slot, and the priority heap orders small {when, seq, slot} keys.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace nephele {

// A move-only, type-erased `void()` callable. Callables of at most
// kInlineSize bytes (alignment up to max_align_t, nothrow-movable) are
// stored inline; larger ones are boxed on the heap. Moving a trivially
// copyable or boxed callable is a byte copy.
class EventCallback {
 public:
  static constexpr std::size_t kInlineSize = 56;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor): callers pass lambdas
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kBoxedOps<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { TakeFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Null when a byte copy of the storage is a valid move.
    void (*relocate)(void* dst, void* src);
    // Null when nothing needs destroying.
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineSize &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*static_cast<D*>(s))(); },
      std::is_trivially_copyable_v<D> ? nullptr
                                      : +[](void* dst, void* src) {
                                          D* from = static_cast<D*>(src);
                                          ::new (dst) D(std::move(*from));
                                          from->~D();
                                        },
      std::is_trivially_destructible_v<D> ? nullptr
                                          : +[](void* s) { static_cast<D*>(s)->~D(); }};

  template <typename D>
  static constexpr Ops kBoxedOps{[](void* s) { (**static_cast<D**>(s))(); }, nullptr,
                                 [](void* s) { delete *static_cast<D**>(s); }};

  void TakeFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(storage_);
    }
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Charges `d` of virtual time to the currently-executing activity.
  void AdvanceBy(SimDuration d) { now_ = now_ + d; }

  // Charges a batch of concurrent activity lanes: the batch costs its
  // longest lane, not the sum. The parallel clone engine models every child
  // of a batch as one lane, so the charge is independent of how many host
  // worker threads executed the staging.
  void AdvanceByCriticalPath(const std::vector<SimDuration>& lanes) {
    SimDuration critical;
    for (SimDuration d : lanes) {
      if (critical < d) {
        critical = d;
      }
    }
    now_ = now_ + critical;
  }

  // Schedules `fn` to run at Now() + delay. Events run in (when, seq) order,
  // seq being the posting order, so events scheduled for the same instant
  // run FIFO and the simulation stays deterministic.
  void Post(SimDuration delay, EventCallback fn);

  // Schedules `fn` at an absolute time (clamped to Now()).
  void PostAt(SimTime when, EventCallback fn);

  // Runs events until the queue drains. Returns the number of events run.
  std::size_t Run();

  // Runs events with scheduled time <= deadline; leaves later events queued
  // and sets Now() to the deadline (if it moved past it).
  std::size_t RunUntil(SimTime deadline);

  bool HasPendingEvents() const { return !heap_.empty(); }
  std::size_t pending_events() const { return heap_.size(); }

 private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Pops the earliest key, moves its callback out of the slot, frees the
  // slot and runs the callback.
  void RunNext();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;  // binary min-heap on (when, seq)
  std::vector<EventCallback> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace nephele

#endif  // SRC_SIM_EVENT_LOOP_H_
