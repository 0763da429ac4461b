// ShardedSimulator: a deterministic, parallel discrete-event core (DESIGN.md §13).
//
// The single-threaded Simulator caps every scale experiment at whatever one core can execute;
// this driver partitions the event loop into K shards — one per region or machine group — each
// wrapping its own Simulator (own event slab, own heap, own SmallFunction callbacks), and runs
// them under a conservative time-window protocol:
//
//   * Windows. Virtual time advances in windows on a fixed grid: cell k covers (kL, (k+1)L],
//     where L (the *lookahead*) is a lower bound on every cross-shard delivery latency — in
//     practice the inter-region latency floor from the LatencyModel, shrunk by the jitter band
//     (Network::ShardedLookaheadBound). Within a window each shard executes its own events
//     independently: any cross-shard send issued at t > kL arrives at t + L > (k+1)L, past the
//     window's end, so no shard can observe another shard's activity mid-window.
//   * Mailboxes. Cross-shard sends append to a single-writer per-source outbox during the
//     window and are drained at the barrier in fixed source-shard order, so destination
//     sequence numbers — and therefore same-instant tie-breaks — are identical whether the
//     window ran on 1 thread or 8. This is what keeps runs byte-identical per seed across
//     thread counts {1, 2, 8}.
//   * Barrier tasks. Mutations of state shared across shards (network partitions, chaos
//     faults, metric export) run in the exclusive phase between windows, in deterministic
//     (time, sequence) order.
//   * Skip-ahead. When every shard is idle until some future time E, the next window is the
//     grid cell holding E rather than a grind through empty cells, so sparse phases cost
//     nothing. Because cells are fixed, which barriers happen depends only on which cells hold
//     work: adding or removing no-op events never moves a barrier (DESIGN.md §13).
//
// Execution is shard-affine. Shard 0, the home shard (orchestrator, discovery, routers and
// app servers in a testbed), always runs on the thread that called RunUntil; shards 1..K-1
// have fixed home workers, dealt round-robin over min(threads, K) - 1 persistent threads, and a
// thread that has finished its own shards takes any shard not yet started. Windows are
// published and joined through an epoch counter and a done counter (std::atomic wait/notify):
// a window takes no mutex and allocates nothing. Placement only decides *where* a shard's
// window runs, never *what* it computes, so results are independent of thread count by
// construction. threads == 1 degenerates to inline serial execution, and num_shards == 1
// bypasses the window machinery entirely — RunUntil delegates straight to the wrapped
// Simulator, which is the fast path every existing single-shard test and component runs on,
// unchanged. An exception escaping an event is caught on the thread that ran it; once every
// shard has finished the window, RunUntil rethrows the lowest-indexed shard's.

#ifndef SRC_SIM_SHARDED_SIMULATOR_H_
#define SRC_SIM_SHARDED_SIMULATOR_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/sim_time.h"
#include "src/common/small_function.h"
#include "src/sim/simulator.h"

namespace shardman {

// Per-window profile, recorded when profiling is enabled (bench-only): how long each shard's
// window took on the wall clock, and how much exclusive barrier work followed. Wall times feed
// the shard-balance and barrier figures of bench/hotspot_slo and smperf; they never influence
// simulation state.
struct WindowProfile {
  TimeMicros window_end = 0;
  std::vector<int64_t> shard_busy_ns;  // one entry per shard
  int64_t barrier_ns = 0;
};

class ShardedSimulator {
 public:
  // `lookahead` must be > 0 when num_shards > 1; it is the conservative window width and the
  // minimum cross-shard send delay. `threads` bounds the threads that run a window, the
  // caller included (1 = inline serial); min(threads, num_shards) - 1 workers are spawned.
  ShardedSimulator(int num_shards, int threads, TimeMicros lookahead);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  int num_shards() const { return num_shards_; }
  TimeMicros lookahead() const { return lookahead_; }

  // The per-shard event engine. Scheduling directly on a shard is allowed from that shard's
  // own events (and from the exclusive phase); other shards must go through Send.
  Simulator& shard(int i) {
    SM_CHECK(i >= 0 && i < num_shards_);
    return *shards_[static_cast<size_t>(i)];
  }

  // Committed virtual time: the last barrier in multi-shard mode, the wrapped Simulator's
  // clock in single-shard mode.
  TimeMicros Now() const { return num_shards_ == 1 ? shards_[0]->Now() : now_; }

  // Index of the shard whose events the calling thread is currently executing, or -1 outside
  // the parallel phase (setup, barriers, single-shard mode).
  int current_shard() const;

  // Schedules `cb` on the calling context's shard after `delay` (shard 0 outside the parallel
  // phase). The local-work primitive for shard-resident actors.
  EventId Schedule(TimeMicros delay, SmallFunction cb);

  // Schedules `cb` on shard `to` after `delay`, measured from the caller's current virtual
  // time. From inside the parallel phase a cross-shard send requires delay >= lookahead (the
  // conservative bound — SM_CHECK enforced) and is delivered through the destination mailbox
  // at the next barrier; same-shard and exclusive-phase sends schedule directly.
  void Send(int to, TimeMicros delay, SmallFunction cb);

  // Runs `cb` once in the exclusive phase at the first barrier at-or-after `when` (absolute
  // virtual time). Barrier tasks observe every shard quiesced at a common time: the only safe
  // place to mutate cross-shard shared state (network partitions, chaos faults). Tasks run in
  // deterministic (time, sequence) order. In single-shard mode this is a plain ScheduleAt.
  void ScheduleBarrierAt(TimeMicros when, SmallFunction cb);
  // Relative variant, measured from the caller's clock (its shard's time inside the parallel
  // phase, committed time outside it).
  void ScheduleBarrierIn(TimeMicros delay, SmallFunction cb);

  // Advances every shard to exactly `t`, window by window. Must be called from outside the
  // parallel phase (the main driver).
  void RunUntil(TimeMicros t);
  void RunFor(TimeMicros duration) { RunUntil(Now() + duration); }

  // -- Diagnostics ----------------------------------------------------------------------------
  uint64_t ExecutedEvents() const;             // summed over shards
  uint64_t ExecutedEventsOnShard(int i) const; // deterministic per (shards, seed)
  uint64_t cross_shard_messages() const { return cross_shard_messages_; }
  uint64_t windows_run() const { return windows_run_; }

  // Wall-clock window profiling for the parallel bench. Off by default.
  void set_profiling(bool on) { profiling_ = on; }
  const std::vector<WindowProfile>& window_profiles() const { return profiles_; }

 private:
  struct MailboxRecord {
    TimeMicros when = 0;  // absolute arrival time
    int32_t dest = -1;
    SmallFunction cb;
  };

  void RunDueBarrierTasks();
  TimeMicros NextBarrierTaskTime() const;
  TimeMicros NextActionTime() const;
  void RunWindow(TimeMicros wend);
  void RunShardWindow(int shard);
  // True for the first thread to claim `shard` in window `epoch`; it then runs the window.
  bool Claim(int shard, uint32_t epoch);
  // Claims and runs every shard of window `epoch` that no thread has started, last shard
  // first (owners walk their homes first to last, so a thief meets them at the end).
  void RunUnstarted(uint32_t epoch);
  void WorkerLoop(int worker);
  void RethrowWindowError();
  void DrainMailboxes();

  const int num_shards_;
  const TimeMicros lookahead_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  TimeMicros now_ = 0;

  // Window runner. Worker w (0-based) is home to shards 1 + w, 1 + w + num_workers_, ...; the
  // caller is home to shard 0. window_end_, window_profile_ and stop_ are written only by the
  // caller before it publishes an epoch, and read by workers after they observe it.
  const int num_workers_;
  std::vector<std::atomic<uint32_t>> claimed_;  // per shard: the last epoch that started it
  alignas(64) std::atomic<uint32_t> epoch_{0};  // bumped once per window (and at shutdown)
  alignas(64) std::atomic<uint32_t> done_{0};   // workers finished with the current window
  std::vector<std::exception_ptr> window_errors_;  // per shard; written by the thread running it
  TimeMicros window_end_ = 0;
  WindowProfile* window_profile_ = nullptr;
  bool stop_ = false;

  // Single-writer outboxes: slot i is appended only by the thread executing shard i during a
  // window (slot num_shards_ belongs to the exclusive phase) and drained only at barriers.
  std::vector<std::vector<MailboxRecord>> outboxes_;

  struct BarrierTask {
    TimeMicros when = 0;
    uint64_t seq = 0;
    SmallFunction cb;
  };
  std::vector<BarrierTask> barrier_heap_;  // min-heap on (when, seq)
  std::vector<std::vector<BarrierTask>> barrier_outboxes_;  // per-slot, merged at barriers
  uint64_t next_barrier_seq_ = 1;

  uint64_t cross_shard_messages_ = 0;
  uint64_t windows_run_ = 0;
  bool running_ = false;  // RunUntil re-entrancy guard (barrier tasks must not call RunUntil)
  bool profiling_ = false;
  std::vector<WindowProfile> profiles_;
  std::vector<std::thread> workers_;  // declared last: the workers use every other member
};

}  // namespace shardman

#endif  // SRC_SIM_SHARDED_SIMULATOR_H_
