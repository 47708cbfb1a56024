#include "src/bmk/sched.h"

#include <utility>

namespace kite {

BmkSched::~BmkSched() {
  // Destroy frames of threads suspended on timers; their executor events
  // observe `alive_` and become no-ops.
  *alive_ = false;
  for (std::coroutine_handle<>& handle : slots_) {
    if (handle) {
      std::exchange(handle, nullptr).destroy();
    }
  }
}

void BmkSched::Spawn(const std::string& name, const std::function<Task()>& body) {
  thread_names_.push_back(name);
  body();  // Eager task: runs until first suspension.
}

void BmkSched::Park(std::coroutine_handle<> handle, SimTime at) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(handle);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = handle;
  }
  executor_->PostAt(at, KITE_POST_SITE("bmk/timer-wake"), [this, alive = alive_, slot] {
    if (!*alive) {
      return;  // Scheduler destroyed; frame already reclaimed.
    }
    std::coroutine_handle<> h = std::exchange(slots_[slot], nullptr);
    free_slots_.push_back(slot);
    h.resume();
  });
}

}  // namespace kite
