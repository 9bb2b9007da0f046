#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace nephele {
namespace {

// std heap comparator: the "largest" key is the earliest (when, seq).
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    if (a.when != b.when) {
      return b.when < a.when;
    }
    return b.seq < a.seq;
  }
};

}  // namespace

void EventLoop::Post(SimDuration delay, EventCallback fn) {
  if (delay.ns() < 0) {
    delay = SimDuration(0);
  }
  PostAt(now_ + delay, std::move(fn));
}

void EventLoop::PostAt(SimTime when, EventCallback fn) {
  if (when < now_) {
    when = now_;
  }
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::RunNext() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Move out before running: the callback may post, which can grow slots_.
  EventCallback fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  if (now_ < key.when) {
    now_ = key.when;
  }
  fn();
}

std::size_t EventLoop::Run() {
  std::size_t count = 0;
  while (!heap_.empty()) {
    RunNext();
    ++count;
  }
  return count;
}

std::size_t EventLoop::RunUntil(SimTime deadline) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    RunNext();
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

}  // namespace nephele
