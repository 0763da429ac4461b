#include "src/sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace shardman {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// Identifies the shard whose events the calling thread is executing. Written only around a
// shard's window (each thread runs one shard's window at a time) and read by the scheduling
// primitives to route work to the caller's own engine.
struct CurrentShardTag {
  const ShardedSimulator* owner = nullptr;
  int shard = -1;
};
static thread_local CurrentShardTag g_current_shard;

ShardedSimulator::ShardedSimulator(int num_shards, int threads, TimeMicros lookahead)
    : num_shards_(num_shards),
      lookahead_(lookahead),
      // One shard needs no windows and so no workers.
      num_workers_(num_shards > 1 ? std::min(std::max(threads, 1), num_shards) - 1 : 0),
      claimed_(static_cast<size_t>(std::max(num_shards, 0))),
      window_errors_(static_cast<size_t>(std::max(num_shards, 0))) {
  SM_CHECK_GE(num_shards_, 1);
  if (num_shards_ > 1) {
    // A zero lookahead would make every window zero-width: conservative synchronization needs a
    // positive latency floor between shards (DESIGN.md §13).
    SM_CHECK_GT(lookahead_, 0);
  }
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  // Slot num_shards_ belongs to code running outside the parallel phase (setup, barrier tasks).
  outboxes_.resize(static_cast<size_t>(num_shards_) + 1);
  barrier_outboxes_.resize(static_cast<size_t>(num_shards_));
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (num_workers_ == 0) {
    return;
  }
  stop_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

int ShardedSimulator::current_shard() const {
  return g_current_shard.owner == this ? g_current_shard.shard : -1;
}

EventId ShardedSimulator::Schedule(TimeMicros delay, SmallFunction cb) {
  const int src = current_shard();
  Simulator& engine = *shards_[static_cast<size_t>(src < 0 ? 0 : src)];
  return engine.ScheduleAt((src < 0 ? Now() : engine.Now()) + delay, std::move(cb));
}

void ShardedSimulator::Send(int to, TimeMicros delay, SmallFunction cb) {
  SM_CHECK(to >= 0 && to < num_shards_);
  SM_CHECK_GE(delay, 0);
  const int src = current_shard();
  if (src < 0 || src == to) {
    // Exclusive phase (every shard quiesced at a common time) or a same-shard send: schedule
    // straight into the destination engine.
    shards_[static_cast<size_t>(to)]->ScheduleAt(
        (src < 0 ? Now() : shards_[static_cast<size_t>(src)]->Now()) + delay, std::move(cb));
    return;
  }
  // The conservative bound: a cross-shard send landing inside the current window would let the
  // destination observe this shard mid-window and break window independence.
  SM_CHECK_GE(delay, lookahead_);
  outboxes_[static_cast<size_t>(src)].push_back(MailboxRecord{
      shards_[static_cast<size_t>(src)]->Now() + delay, static_cast<int32_t>(to), std::move(cb)});
}

void ShardedSimulator::ScheduleBarrierAt(TimeMicros when, SmallFunction cb) {
  SM_CHECK(static_cast<bool>(cb));
  if (num_shards_ == 1) {
    shards_[0]->ScheduleAt(std::max(when, shards_[0]->Now()), std::move(cb));
    return;
  }
  const int src = current_shard();
  const auto after = [](const BarrierTask& a, const BarrierTask& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  };
  if (src < 0) {
    barrier_heap_.push_back(BarrierTask{when, next_barrier_seq_++, std::move(cb)});
    std::push_heap(barrier_heap_.begin(), barrier_heap_.end(), after);
    return;
  }
  // From inside a window: park in the shard's outbox (sequence assigned at the merge, in slot
  // order, so the heap order never depends on thread interleaving).
  barrier_outboxes_[static_cast<size_t>(src)].push_back(BarrierTask{when, 0, std::move(cb)});
}

void ShardedSimulator::ScheduleBarrierIn(TimeMicros delay, SmallFunction cb) {
  const int src = current_shard();
  const TimeMicros base = src < 0 ? Now() : shards_[static_cast<size_t>(src)]->Now();
  ScheduleBarrierAt(base + delay, std::move(cb));
}

void ShardedSimulator::RunDueBarrierTasks() {
  const auto after = [](const BarrierTask& a, const BarrierTask& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  };
  while (!barrier_heap_.empty() && barrier_heap_.front().when <= now_) {
    std::pop_heap(barrier_heap_.begin(), barrier_heap_.end(), after);
    BarrierTask task = std::move(barrier_heap_.back());
    barrier_heap_.pop_back();
    task.cb();  // may schedule more barrier tasks or events; both land deterministically
  }
}

TimeMicros ShardedSimulator::NextBarrierTaskTime() const {
  return barrier_heap_.empty() ? Simulator::kNoPendingEvent : barrier_heap_.front().when;
}

TimeMicros ShardedSimulator::NextActionTime() const {
  TimeMicros next = NextBarrierTaskTime();
  for (const auto& shard : shards_) {
    next = std::min(next, shard->NextEventTime());
  }
  return next;
}

void ShardedSimulator::RunShardWindow(int shard) {
  g_current_shard = CurrentShardTag{this, shard};
  Simulator& engine = *shards_[static_cast<size_t>(shard)];
  const int64_t t0 = window_profile_ != nullptr ? NowNanos() : 0;
  try {
    engine.RunUntil(window_end_);
  } catch (...) {
    // Forwarded to the RunUntil caller after the join; a worker thread must not unwind.
    window_errors_[static_cast<size_t>(shard)] = std::current_exception();
  }
  if (window_profile_ != nullptr) {
    window_profile_->shard_busy_ns[static_cast<size_t>(shard)] = NowNanos() - t0;
  }
  g_current_shard = CurrentShardTag{};
}

bool ShardedSimulator::Claim(int shard, uint32_t epoch) {
  // Relaxed is enough: shard state is published by the epoch store and the done counter.
  return claimed_[static_cast<size_t>(shard)].exchange(epoch, std::memory_order_relaxed) != epoch;
}

void ShardedSimulator::RunUnstarted(uint32_t epoch) {
  // Shard 0 is never taken: it stays on the calling thread.
  for (int i = num_shards_ - 1; i >= 1; --i) {
    if (Claim(i, epoch)) {
      RunShardWindow(i);
    }
  }
}

void ShardedSimulator::WorkerLoop(int worker) {
  uint32_t seen = 0;
  while (true) {
    // Blocks (after a short bounded spin inside the library) until the caller publishes.
    epoch_.wait(seen, std::memory_order_acquire);
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_) {
      return;
    }
    for (int i = 1 + worker; i < num_shards_; i += num_workers_) {
      if (Claim(i, seen)) {
        RunShardWindow(i);
      }
    }
    RunUnstarted(seen);
    // Release: this thread's shard state and outboxes happen-before the caller's drain. A
    // worker touches no window state after this point, so the caller may publish the next.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<uint32_t>(num_workers_)) {
      done_.notify_one();
    }
  }
}

void ShardedSimulator::RunWindow(TimeMicros wend) {
  window_end_ = wend;
  window_profile_ = nullptr;
  if (profiling_) {
    profiles_.push_back(
        WindowProfile{wend, std::vector<int64_t>(static_cast<size_t>(num_shards_), 0), 0});
    window_profile_ = &profiles_.back();
  }
  if (num_workers_ == 0) {
    for (int i = 0; i < num_shards_; ++i) {
      RunShardWindow(i);
    }
    RethrowWindowError();
    return;
  }
  // Every worker reported done for the previous window, so none reads done_ or the window
  // fields until the release store below publishes them.
  done_.store(0, std::memory_order_relaxed);
  const uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(epoch, std::memory_order_release);
  epoch_.notify_all();
  RunShardWindow(0);
  RunUnstarted(epoch);
  const uint32_t workers = static_cast<uint32_t>(num_workers_);
  for (uint32_t done = done_.load(std::memory_order_acquire); done != workers;
       done = done_.load(std::memory_order_acquire)) {
    done_.wait(done, std::memory_order_acquire);
  }
  RethrowWindowError();
}

void ShardedSimulator::RethrowWindowError() {
  // Lowest shard first, so the propagated error does not depend on thread scheduling.
  for (std::exception_ptr& error : window_errors_) {
    if (error) {
      std::rethrow_exception(std::exchange(error, nullptr));
    }
  }
}

void ShardedSimulator::DrainMailboxes() {
  // Fixed fold order — slot 0..K in append order — is what pins destination sequence numbers
  // (and so same-instant tie-breaks) regardless of which threads ran the window.
  for (auto& outbox : outboxes_) {
    for (MailboxRecord& rec : outbox) {
      ++cross_shard_messages_;
      SM_CHECK_GE(rec.when, now_);  // conservative bound: arrival is on or after the barrier
      shards_[static_cast<size_t>(rec.dest)]->ScheduleAt(rec.when, std::move(rec.cb));
    }
    outbox.clear();
  }
  for (auto& outbox : barrier_outboxes_) {
    for (BarrierTask& task : outbox) {
      ScheduleBarrierAt(task.when, std::move(task.cb));  // current_shard() is -1 here
    }
    outbox.clear();
  }
}

void ShardedSimulator::RunUntil(TimeMicros t) {
  SM_CHECK(current_shard() < 0);  // never from inside a shard's window
  if (num_shards_ == 1) {
    shards_[0]->RunUntil(t);
    return;
  }
  SM_CHECK(!running_);  // barrier tasks must not re-enter the driver
  SM_CHECK_GE(t, now_);
  running_ = true;
  while (true) {
    RunDueBarrierTasks();
    const TimeMicros next = NextActionTime();
    if (next > t) {
      break;
    }
    // Windows live on the absolute grid: cell k covers (kL, (k+1)L], and skip-ahead jumps to
    // the cell holding the next action. Barrier times are then a function of which cells hold
    // real work, not of every shard's pending-event population, so a no-op event can never
    // shift a barrier and with it the sequence numbers drained mailbox records receive.
    // Safety: every event in the window runs at >= next > (k+1)L - L, so a cross-shard send
    // (delay >= L) lands strictly after the cell's end.
    const TimeMicros cell_end = next + (lookahead_ - next % lookahead_) % lookahead_;
    TimeMicros wend = std::min(cell_end, t);
    // A pending barrier task caps the window so shared-state mutation happens at its scheduled
    // time. NextBarrierTaskTime() >= next here: due tasks already ran.
    wend = std::min(wend, NextBarrierTaskTime());
    RunWindow(wend);
    now_ = wend;
    ++windows_run_;
    if (profiling_ && !profiles_.empty()) {
      const int64_t t0 = NowNanos();
      DrainMailboxes();
      profiles_.back().barrier_ns = NowNanos() - t0;
    } else {
      DrainMailboxes();
    }
  }
  // Nothing pending at or before t: commit the clocks (executes no events).
  for (auto& shard : shards_) {
    shard->RunUntil(t);
  }
  now_ = t;
  running_ = false;
}

uint64_t ShardedSimulator::ExecutedEvents() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ExecutedEvents();
  }
  return total;
}

uint64_t ShardedSimulator::ExecutedEventsOnShard(int i) const {
  SM_CHECK(i >= 0 && i < num_shards_);
  return shards_[static_cast<size_t>(i)]->ExecutedEvents();
}

}  // namespace shardman
