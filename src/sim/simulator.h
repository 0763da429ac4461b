// Deterministic discrete-event simulator.
//
// All control-plane and data-plane activity in the experiments runs against this virtual clock:
// events are (time, sequence)-ordered closures, so a run is fully reproducible and simulated
// hours execute in wall-clock milliseconds. Components hold a Simulator* and schedule callbacks
// instead of sleeping.
//
// Hot-path design (DESIGN.md §9): the event loop is allocation-free in steady state. Callbacks
// are SmallFunction (captures ≤ 48 bytes stored inline, no malloc per Schedule; trivially
// copyable captures move as a memcpy), events live in a free-listed slab (`pool_`) that is
// recycled rather than reallocated, and the priority queue is an indexed 4-ary heap of 16-byte
// {when, key} items, where key = seq << 24 | slot. Comparing keys compares sequence numbers,
// because they are unique, so the (when, seq) order is exactly that of a {when, seq, slot}
// triple, in two thirds of the bytes. Every pending event knows its heap position, so
// Cancel removes it in O(log n) and frees its slot at once: the queue only ever holds live
// events, and Step never meets a cancelled one. EventId encodes {slot, generation}: cancelling
// an already-executed, already-cancelled or never-issued id is an O(1) no-op that leaves no
// residue behind.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/sim_time.h"
#include "src/common/small_function.h"

namespace shardman {

// Handle for cancelling a scheduled event (or a periodic chain).
struct EventId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

class Simulator {
 public:
  using Callback = SmallFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeMicros Now() const { return now_; }

  // Schedules `cb` to run `delay` microseconds from now (delay >= 0). Events scheduled for the
  // same instant run in scheduling order.
  EventId Schedule(TimeMicros delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Schedules `cb` at absolute virtual time `when` (>= Now()).
  EventId ScheduleAt(TimeMicros when, Callback cb);

  // Schedules `cb` every `period` microseconds, starting `first_delay` from now. The callback is
  // stored once in the chain registry; each firing schedules only a {this, chain_id} trampoline,
  // never a fresh copy of `cb`. Returns the id of the recurring chain; cancelling it stops
  // future firings.
  EventId SchedulePeriodic(TimeMicros first_delay, TimeMicros period, Callback cb);

  // Cancels a pending event: it leaves the queue and its slot is free for reuse before Cancel
  // returns. Cancelling an already-fired, already-cancelled or invalid id is an O(1) no-op.
  void Cancel(EventId id);

  // Runs a single event. Returns false if the queue is empty.
  bool Step();

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(TimeMicros t);

  // Runs for `duration` of virtual time from now.
  void RunFor(TimeMicros duration) { RunUntil(now_ + duration); }

  // Runs until the event queue is empty (use with care: periodic tasks never drain).
  void RunAll();

  // Sentinel returned by NextEventTime() when nothing is pending.
  static constexpr TimeMicros kNoPendingEvent = std::numeric_limits<TimeMicros>::max();

  // Timestamp of the earliest pending event, or kNoPendingEvent; used by ShardedSimulator to
  // skip over idle gaps (DESIGN.md §13).
  TimeMicros NextEventTime() const {
    return heap_.empty() ? kNoPendingEvent : heap_.front().when;
  }

  // Number of pending events.
  size_t PendingEvents() const { return heap_.size(); }

  // True when the calling thread may touch state owned by this engine: it is inside this
  // engine's RunUntil/RunAll, or outside every engine's run loop (setup code, ShardedSimulator's
  // exclusive phase). State tied to one engine — RPC call records, timeouts —
  // SM_CHECKs this so a caller moved onto another engine fails loudly instead of racing.
  bool IsCallerEngine() const;

  // Total events executed since construction (diagnostics).
  uint64_t ExecutedEvents() const { return executed_; }

  // Size of the event slab (diagnostics/tests): bounded by the peak number of simultaneously
  // pending events, independent of how many events have ever been scheduled or cancelled.
  size_t EventPoolSlots() const { return pool_.size(); }

 private:
  struct Event {
    Callback cb;
    uint32_t generation = 0;
  };
  // A queued event: its time and key = seq << kSlotBits | slot. The sequence number sits in the
  // high bits, so ordering by key is ordering by seq; the slot rides along in the low bits.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kMaxSlots = 1ULL << kSlotBits;  // pending events at once
  static constexpr uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);  // events ever scheduled
  struct HeapItem {
    TimeMicros when;
    uint64_t key;
    uint32_t slot() const { return static_cast<uint32_t>(key & (kMaxSlots - 1)); }
  };
  static_assert(sizeof(HeapItem) == 16);
  static bool Before(const HeapItem& a, const HeapItem& b) {
    return a.when != b.when ? a.when < b.when : a.key < b.key;
  }
  // Children per heap node. A 4-ary heap is shallower than a binary one and its four 16-byte
  // children are 64 adjacent bytes; it measured faster than binary on smperf hotspot_flash
  // (DESIGN.md §9).
  static constexpr size_t kArity = 4;
  // heap_pos_ value of a slot that is not queued (free, or its event is running).
  static constexpr uint32_t kNotQueued = std::numeric_limits<uint32_t>::max();
  struct PeriodicChain {
    TimeMicros period = 0;
    Callback cb;
    EventId pending;        // the queued next firing
    bool running = false;   // cb currently executing (defer erase to PeriodicFire)
    bool dead = false;      // cancelled while running
  };

  static constexpr uint64_t kPeriodicTag = 1ULL << 63;

  static uint64_t MakeEventId(uint32_t generation, uint32_t slot) {
    return (static_cast<uint64_t>(generation) << 32) | (static_cast<uint64_t>(slot) + 1);
  }
  static uint32_t SlotOf(uint64_t value) {
    return static_cast<uint32_t>(value & 0xFFFFFFFFULL) - 1;
  }
  static uint32_t GenerationOf(uint64_t value) {
    return static_cast<uint32_t>((value >> 32) & 0x7FFFFFFFULL);
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  // Indexed-heap primitives: every move of an item updates heap_pos_ for its slot.
  void Place(size_t pos, const HeapItem& item) {
    heap_[pos] = item;
    heap_pos_[item.slot()] = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos, HeapItem item);
  void SiftDown(size_t pos, HeapItem item);
  // Removes the item at `pos` and returns it, keeping the heap ordered.
  HeapItem RemoveAt(size_t pos);
  void PeriodicFire(uint64_t chain_id);
  void CancelChain(uint64_t chain_id);

  TimeMicros now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  std::vector<Event> pool_;
  std::vector<uint32_t> free_slots_;
  std::vector<HeapItem> heap_;
  // Per slot: index of its item in heap_, or kNotQueued. Kept apart from pool_ so sifting
  // writes a dense array instead of touching each moved event's callback cache lines.
  std::vector<uint32_t> heap_pos_;
  std::unordered_map<uint64_t, PeriodicChain> chains_;
  uint64_t next_chain_id_ = 1;
};

}  // namespace shardman

#endif  // SRC_SIM_SIMULATOR_H_
