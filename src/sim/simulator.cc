#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace shardman {

namespace {

// The engine whose run loop the calling thread is executing (see IsCallerEngine).
thread_local const Simulator* t_running_engine = nullptr;

// Marks `engine` as the calling thread's running engine for one RunUntil/RunAll.
class RunningEngineScope {
 public:
  explicit RunningEngineScope(const Simulator* engine) : previous_(t_running_engine) {
    t_running_engine = engine;
  }
  ~RunningEngineScope() { t_running_engine = previous_; }
  RunningEngineScope(const RunningEngineScope&) = delete;
  RunningEngineScope& operator=(const RunningEngineScope&) = delete;

 private:
  const Simulator* previous_;
};

}  // namespace

bool Simulator::IsCallerEngine() const {
  return t_running_engine == nullptr || t_running_engine == this;
}

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  SM_CHECK_LT(pool_.size(), kMaxSlots);
  pool_.emplace_back();
  heap_pos_.push_back(kNotQueued);
  return static_cast<uint32_t>(pool_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Event& ev = pool_[slot];
  ev.generation = (ev.generation + 1) & 0x7FFFFFFFU;  // invalidates outstanding EventIds
  ev.cb.reset();
  heap_pos_[slot] = kNotQueued;
  free_slots_.push_back(slot);
}

void Simulator::SiftUp(size_t pos, HeapItem item) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Before(item, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, item);
}

void Simulator::SiftDown(size_t pos, HeapItem item) {
  const size_t n = heap_.size();
  while (true) {
    const size_t first = pos * kArity + 1;
    if (first >= n) {
      break;
    }
    const size_t last = std::min(first + kArity, n);
    size_t best = first;
    for (size_t child = first + 1; child < last; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], item)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, item);
}

Simulator::HeapItem Simulator::RemoveAt(size_t pos) {
  const HeapItem removed = heap_[pos];
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // Refill the hole with the last item, then restore order in whichever direction it broke.
    if (pos > 0 && Before(last, heap_[(pos - 1) / kArity])) {
      SiftUp(pos, last);
    } else {
      SiftDown(pos, last);
    }
  }
  return removed;
}

EventId Simulator::ScheduleAt(TimeMicros when, Callback cb) {
  SM_CHECK_GE(when, now_);
  SM_CHECK_LT(next_seq_, kMaxSeq);
  uint32_t slot = AcquireSlot();
  Event& ev = pool_[slot];
  ev.cb = std::move(cb);
  uint64_t id = MakeEventId(ev.generation, slot);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapItem{when, (next_seq_++ << kSlotBits) | slot});
  return EventId{id};
}

EventId Simulator::SchedulePeriodic(TimeMicros first_delay, TimeMicros period, Callback cb) {
  SM_CHECK_GT(period, 0);
  uint64_t chain_id = next_chain_id_++;
  PeriodicChain& chain = chains_[chain_id];
  chain.period = period;
  chain.cb = std::move(cb);
  chain.pending = ScheduleAt(now_ + first_delay, [this, chain_id]() { PeriodicFire(chain_id); });
  return EventId{kPeriodicTag | chain_id};
}

void Simulator::PeriodicFire(uint64_t chain_id) {
  auto it = chains_.find(chain_id);
  if (it == chains_.end()) {
    return;
  }
  // References into unordered_map nodes are stable even if the callback creates or cancels
  // other chains (only iterators are invalidated by a rehash).
  PeriodicChain& chain = it->second;
  chain.running = true;
  chain.cb();
  chain.running = false;
  if (chain.dead) {  // the callback cancelled its own chain
    chains_.erase(chain_id);
    return;
  }
  chain.pending = ScheduleAt(now_ + chain.period, [this, chain_id]() { PeriodicFire(chain_id); });
}

void Simulator::Cancel(EventId id) {
  if (!id.valid()) {
    return;
  }
  if ((id.value & kPeriodicTag) != 0) {
    CancelChain(id.value & ~kPeriodicTag);
    return;
  }
  uint32_t slot = SlotOf(id.value);
  if (slot >= pool_.size()) {
    return;  // never issued
  }
  const uint32_t pos = heap_pos_[slot];
  if (pos == kNotQueued || pool_[slot].generation != GenerationOf(id.value)) {
    return;  // already fired, already cancelled, or a recycled slot — nothing to do
  }
  RemoveAt(pos);
  ReleaseSlot(slot);
}

void Simulator::CancelChain(uint64_t chain_id) {
  auto it = chains_.find(chain_id);
  if (it == chains_.end()) {
    return;
  }
  Cancel(it->second.pending);
  if (it->second.running) {
    it->second.dead = true;  // PeriodicFire erases after the callback returns
  } else {
    chains_.erase(it);
  }
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const HeapItem top = RemoveAt(0);
  SM_CHECK_GE(top.when, now_);
  now_ = top.when;
  ++executed_;
  // Move the callback out and free the slot before running it, so the callback can schedule
  // new events (reusing this slot) or Cancel its own id (a generation-mismatch no-op).
  const uint32_t slot = top.slot();
  Callback cb = std::move(pool_[slot].cb);
  ReleaseSlot(slot);
  cb();
  return true;
}

void Simulator::RunUntil(TimeMicros t) {
  SM_CHECK_GE(t, now_);
  RunningEngineScope running(this);
  while (!heap_.empty() && heap_.front().when <= t) {
    Step();
  }
  now_ = t;
}

void Simulator::RunAll() {
  RunningEngineScope running(this);
  while (Step()) {
  }
}

}  // namespace shardman
