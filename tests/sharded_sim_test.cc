// ShardedSimulator unit + determinism tests (DESIGN.md §13): conservative windows, mailbox
// delivery, barrier tasks, and byte-identity across thread counts, on the bare engine and on a
// sharded Network.

#include "src/sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace shardman {
namespace {

TEST(SimulatorPeek, NextEventTimeReportsEarliestPending) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPendingEvent);
  EventId early = sim.Schedule(100, []() {});
  sim.Schedule(500, []() {});
  EXPECT_EQ(sim.NextEventTime(), 100);
  // Cancelling the head removes it at once: the peek never sees a cancelled event.
  sim.Cancel(early);
  EXPECT_EQ(sim.NextEventTime(), 500);
  sim.RunUntil(1000);
  EXPECT_EQ(sim.NextEventTime(), Simulator::kNoPendingEvent);
}

TEST(ShardedSim, SingleShardDelegatesToPlainSimulator) {
  Simulator plain;
  ShardedSimulator sharded(1, 1, 0);
  std::vector<TimeMicros> plain_times;
  std::vector<TimeMicros> sharded_times;
  for (TimeMicros d : {40, 10, 10, 250}) {
    plain.Schedule(d, [&plain, &plain_times]() { plain_times.push_back(plain.Now()); });
    sharded.Schedule(d, [&sharded, &sharded_times]() { sharded_times.push_back(sharded.Now()); });
  }
  plain.RunUntil(300);
  sharded.RunUntil(300);
  EXPECT_EQ(plain_times, sharded_times);
  EXPECT_EQ(plain.Now(), sharded.Now());
  EXPECT_EQ(plain.ExecutedEvents(), sharded.ExecutedEvents());
  EXPECT_EQ(sharded.windows_run(), 0u);  // the fast path never opens a window
}

TEST(ShardedSim, CrossShardSendDeliversAtExactVirtualTime) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, 1, kLookahead);
  TimeMicros delivered_at = -1;
  int delivered_on_shard = -1;
  sim.shard(0).ScheduleAt(100, [&]() {
    sim.Send(1, 1500, [&]() {
      delivered_at = sim.shard(1).Now();
      delivered_on_shard = sim.current_shard();
    });
  });
  sim.RunUntil(5000);
  EXPECT_EQ(delivered_at, 1600);
  EXPECT_EQ(delivered_on_shard, 1);
  EXPECT_EQ(sim.cross_shard_messages(), 1u);
  EXPECT_EQ(sim.Now(), 5000);
  EXPECT_EQ(sim.shard(0).Now(), 5000);
  EXPECT_EQ(sim.shard(1).Now(), 5000);
}

TEST(ShardedSim, ZeroDelaySameShardSendIsImmediate) {
  // Zero-latency intra-shard traffic (same-region links) needs no lookahead: it schedules
  // directly on the local engine and runs at the same instant, in scheduling order.
  ShardedSimulator sim(2, 1, 500);
  std::vector<int> order;
  sim.shard(0).ScheduleAt(100, [&]() {
    sim.Send(0, 0, [&]() { order.push_back(2); });
    order.push_back(1);
  });
  sim.RunUntil(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimDeathTest, CrossShardSendBelowLookaheadDies) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, 1, kLookahead);
  sim.shard(0).ScheduleAt(10, [&]() { sim.Send(1, kLookahead - 1, []() {}); });
  EXPECT_DEATH(sim.RunUntil(100), "SM_CHECK");
}

TEST(ShardedSimDeathTest, CheckFailureOnWorkerShardDies) {
  // Shard 0 holds the calling thread until shard 1's event has started, so shard 1 runs on its
  // home worker; the failed check there must abort the process, not hang the window join.
  EXPECT_DEATH(
      {
        ShardedSimulator sim(2, 2, 1000);
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> started{false};
        sim.shard(0).ScheduleAt(10, [&]() {
          while (!started.load()) {
            std::this_thread::yield();
          }
        });
        sim.shard(1).ScheduleAt(10, [&]() {
          started.store(true);
          SM_CHECK(std::this_thread::get_id() == caller);
        });
        sim.RunUntil(100);
      },
      "SM_CHECK");
}

TEST(ShardedSim, EventExceptionReachesRunUntilCaller) {
  // Thrown on shard 1's home worker (shard 0 holds the caller until it starts); RunUntil
  // rethrows it once the window has joined, and the destructor still joins the worker.
  ShardedSimulator sim(2, 2, 1000);
  std::atomic<bool> started{false};
  int shard0_events = 0;
  sim.shard(0).ScheduleAt(10, [&]() {
    while (!started.load()) {
      std::this_thread::yield();
    }
    ++shard0_events;
  });
  sim.shard(1).ScheduleAt(10, [&]() {
    started.store(true);
    throw std::runtime_error("shard 1");
  });
  EXPECT_THROW(sim.RunUntil(100), std::runtime_error);
  EXPECT_EQ(shard0_events, 1);
}

TEST(ShardedSim, HomeShardRunsOnCallingThread) {
  // Records, per shard, the thread that ran each event. Each vector is written only by its own
  // shard's events, and a shard runs on one thread at a time.
  auto run = [](int shards, int threads) {
    constexpr TimeMicros kLookahead = 1000;
    ShardedSimulator sim(shards, threads, kLookahead);
    std::vector<std::vector<std::thread::id>> ran_on(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      sim.shard(s).SchedulePeriodic(10 + s, 250, [&sim, &ran_on, s, shards]() {
        ran_on[static_cast<size_t>(s)].push_back(std::this_thread::get_id());
        if (sim.shard(s).ExecutedEvents() % 3 == 0) {
          sim.Send((s + 1) % shards, kLookahead, [&ran_on, &sim]() {
            const int here = sim.current_shard();
            ran_on[static_cast<size_t>(here)].push_back(std::this_thread::get_id());
          });
        }
      });
    }
    sim.RunUntil(Millis(200));
    return ran_on;
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {2, 8}) {
    const auto ran_on = run(4, threads);
    ASSERT_FALSE(ran_on[0].empty());
    for (const std::thread::id& id : ran_on[0]) {
      ASSERT_EQ(id, caller) << "threads " << threads;
    }
  }
  // min(threads, shards) - 1 = 2 workers: no other thread ever runs an event.
  std::set<std::thread::id> others;
  for (const auto& shard_ids : run(3, 8)) {
    for (const std::thread::id& id : shard_ids) {
      if (id != caller) {
        others.insert(id);
      }
    }
  }
  EXPECT_LE(others.size(), 2u);
}

TEST(ShardedSim, ArrivalExactlyOnWindowBarrier) {
  // A send with delay exactly == lookahead issued at a window start arrives exactly at the
  // barrier; it must execute at its precise virtual time in the next window, not slip.
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, 1, kLookahead);
  TimeMicros delivered_at = -1;
  // First window starts at 0 (skip-ahead lands on the first event's time).
  sim.shard(0).ScheduleAt(0, [&]() {
    sim.Send(1, kLookahead, [&]() { delivered_at = sim.shard(1).Now(); });
  });
  sim.RunUntil(3 * kLookahead);
  EXPECT_EQ(delivered_at, kLookahead);
}

TEST(ShardedSim, BarrierTasksRunExclusivelyAtRequestedTime) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(3, 1, kLookahead);
  std::vector<std::string> events;
  // Keep shards busy so windows actually open around the barrier time.
  for (int s = 0; s < 3; ++s) {
    sim.shard(s).SchedulePeriodic(100, 300, []() {});
  }
  sim.ScheduleBarrierAt(2500, [&]() {
    EXPECT_EQ(sim.current_shard(), -1);
    EXPECT_GE(sim.Now(), 2500);
    events.push_back("barrier@" + std::to_string(sim.Now()));
    // Barrier tasks may schedule work onto any shard directly: the exclusive phase owns all.
    sim.shard(2).Schedule(50, [&]() { events.push_back("follow-up"); });
  });
  sim.RunUntil(5000);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "barrier@2500");
  EXPECT_EQ(events[1], "follow-up");
}

TEST(ShardedSim, BarrierTaskScheduledFromShardEvent) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, 1, kLookahead);
  TimeMicros barrier_now = -1;
  TimeMicros requested_from = -1;
  sim.shard(1).ScheduleAt(150, [&]() {
    requested_from = sim.shard(1).Now();
    sim.ScheduleBarrierIn(2000, [&]() {
      EXPECT_EQ(sim.current_shard(), -1);
      barrier_now = sim.Now();
    });
  });
  sim.RunUntil(10 * kLookahead);
  EXPECT_EQ(requested_from, 150);
  // Runs at the first barrier at-or-after 2150; windows are lookahead-wide so it lands within
  // one window width of the requested time.
  ASSERT_GE(barrier_now, 2150);
  EXPECT_LE(barrier_now, 2150 + kLookahead);
}

TEST(ShardedSim, SkipAheadOverIdleGaps) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, 1, kLookahead);
  int ran = 0;
  sim.shard(0).ScheduleAt(10, [&]() { ++ran; });
  sim.shard(1).ScheduleAt(1'000'000, [&]() { ++ran; });
  sim.RunUntil(2'000'000);
  EXPECT_EQ(ran, 2);
  // Without skip-ahead this run would grind through ~2000 windows.
  EXPECT_LE(sim.windows_run(), 4u);
}

// -- Determinism across thread counts ---------------------------------------------------------

struct PingPongContext {
  ShardedSimulator* sim = nullptr;
  std::vector<std::vector<std::string>>* logs = nullptr;
  int shards = 0;
  TimeMicros lookahead = 0;

  void Tick(int s, int n) {
    (*logs)[static_cast<size_t>(s)].push_back(std::to_string(s) + "@" +
                                              std::to_string(sim->shard(s).Now()) + "#" +
                                              std::to_string(n));
    if (n >= 60) {
      return;
    }
    if (n % 3 == 2) {
      const int to = (s + 1) % shards;
      sim->Send(to, lookahead + (n * 7) % 50, [this, to, n]() { Tick(to, n + 1); });
    } else {
      sim->Schedule(100 + (n % 5) * 10, [this, s, n]() { Tick(s, n + 1); });
    }
  }
};

struct PingPongResult {
  std::string trace;
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross_messages = 0;
};

PingPongResult RunPingPong(int threads, int shards = 4) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(shards, threads, kLookahead);
  // Per-shard logs: each written only by its own shard's events, merged after the run in fixed
  // shard order — the same single-writer discipline real workloads use.
  std::vector<std::vector<std::string>> logs(static_cast<size_t>(shards));
  PingPongContext ctx{&sim, &logs, shards, kLookahead};
  for (int s = 0; s < shards; ++s) {
    sim.shard(s).ScheduleAt(50 + s * 13, [&ctx, s]() { ctx.Tick(s, 0); });
  }
  sim.RunUntil(Seconds(2));
  PingPongResult result;
  for (const auto& shard_log : logs) {
    for (const std::string& line : shard_log) {
      result.trace += line;
      result.trace += '\n';
    }
  }
  result.executed = sim.ExecutedEvents();
  result.windows = sim.windows_run();
  result.cross_messages = sim.cross_shard_messages();
  return result;
}

// Three regions on three shards behind a sharded Network: the per-shard send lanes run from
// concurrently executing windows. Each region keeps a chain of cross-region sends going (every
// delivery sends the next hop onward), and a barrier task partitions region 1 and heals it
// again, so some hops drop and their chains restart from the region's periodic kick. The
// trace ends with every region's RegionNetStats.
PingPongResult RunNetworkChains(int threads) {
  constexpr int kRegions = 3;
  ShardedSimulator sim(kRegions, threads, Millis(20));
  Network net(&sim.shard(0), LatencyModel(kRegions, Millis(1), Millis(30)), /*seed=*/11);
  net.EnableShardedMode(&sim, {0, 1, 2});
  std::vector<std::vector<std::string>> logs(kRegions);
  std::function<void(int, int, int)> hop = [&](int origin, int at, int n) {
    logs[static_cast<size_t>(at)].push_back(std::to_string(origin) + ">" + std::to_string(at) +
                                            "#" + std::to_string(n) + "@" +
                                            std::to_string(sim.shard(at).Now()));
    const int to = (at + 1 + n % 2) % kRegions;
    net.Send(RegionId(at), RegionId(to), [&hop, origin, to, n]() { hop(origin, to, n + 1); });
  };
  for (int r = 0; r < kRegions; ++r) {
    sim.shard(r).SchedulePeriodic(Millis(5 + r), Millis(50), [&hop, &sim, r]() {
      hop(r, r, static_cast<int>(sim.shard(r).Now() / Millis(50)) * 1000);
    });
  }
  sim.ScheduleBarrierAt(Millis(400), [&net]() { net.PartitionRegion(RegionId(1)); });
  sim.ScheduleBarrierAt(Millis(700), [&net]() { net.HealRegion(RegionId(1)); });
  sim.RunUntil(Seconds(1));
  PingPongResult result;
  for (const auto& region_log : logs) {
    for (const std::string& line : region_log) {
      result.trace += line;
      result.trace += '\n';
    }
  }
  for (int r = 0; r < kRegions; ++r) {
    const RegionNetStats stats = net.region_stats(RegionId(r));
    result.trace += "region" + std::to_string(r) + " sent=" + std::to_string(stats.sent) +
                    " delivered_in=" + std::to_string(stats.delivered_in) +
                    " dropped_out=" + std::to_string(stats.dropped_out) +
                    " dropped_in=" + std::to_string(stats.dropped_in) + "\n";
  }
  EXPECT_GT(net.messages_dropped(), 0u) << "the partition dropped nothing";
  result.executed = sim.ExecutedEvents();
  result.windows = sim.windows_run();
  result.cross_messages = sim.cross_shard_messages();
  return result;
}

TEST(ShardedSimDeterminism, ByteIdenticalTraceAcrossThreads) {
  struct Scenario {
    const char* name;
    PingPongResult (*run)(int threads);
  };
  for (const auto& [name, run] :
       {Scenario{"ping-pong", [](int threads) { return RunPingPong(threads); }},
        Scenario{"network chains", &RunNetworkChains}}) {
    const PingPongResult t1 = run(1);
    EXPECT_GT(t1.cross_messages, 0u) << name;
    EXPECT_FALSE(t1.trace.empty()) << name;
    for (int threads : {2, 8}) {
      const PingPongResult tn = run(threads);
      EXPECT_EQ(t1.trace, tn.trace) << name << " at " << threads << " threads";
      EXPECT_EQ(t1.executed, tn.executed) << name << " at " << threads << " threads";
      EXPECT_EQ(t1.windows, tn.windows) << name << " at " << threads << " threads";
    }
  }
}

TEST(ShardedSimDeterminism, UnevenHomesAndSurplusThreadsAreByteIdentical) {
  // 5 shards at 3 threads: the two workers own {1, 3} and {2, 4}. 2 shards at 8 threads: one
  // worker, six threads never spawned.
  for (const auto& [shards, threads] : {std::pair{5, 3}, std::pair{2, 8}}) {
    const PingPongResult serial = RunPingPong(1, shards);
    const PingPongResult parallel = RunPingPong(threads, shards);
    EXPECT_GT(serial.cross_messages, 0u);
    EXPECT_EQ(serial.trace, parallel.trace) << shards << " shards at " << threads;
    EXPECT_EQ(serial.executed, parallel.executed);
    EXPECT_EQ(serial.windows, parallel.windows);
    EXPECT_EQ(serial.cross_messages, parallel.cross_messages);
  }
}

// A periodic chain whose every firing hops to the next shard and back: the chain lives on one
// engine, its payload crosses shards each period.
struct HopResult {
  uint64_t hops = 0;
  std::string arrival_times;
};

HopResult RunPeriodicHop(int threads) {
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(2, threads, kLookahead);
  // Written only from shard 1 events; read after the run.
  HopResult result;
  sim.shard(0).SchedulePeriodic(500, 700, [&sim, &result]() {
    sim.Send(1, 1200, [&sim, &result]() {
      ++result.hops;
      result.arrival_times += std::to_string(sim.shard(1).Now()) + ",";
    });
  });
  sim.RunUntil(Seconds(1));
  return result;
}

TEST(ShardedSimDeterminism, PeriodicChainsHoppingShardsAreThreadInvariant) {
  const HopResult t1 = RunPeriodicHop(1);
  const HopResult t2 = RunPeriodicHop(2);
  const HopResult t8 = RunPeriodicHop(8);
  EXPECT_GT(t1.hops, 0u);
  EXPECT_EQ(t1.hops, t2.hops);
  EXPECT_EQ(t1.hops, t8.hops);
  EXPECT_EQ(t1.arrival_times, t2.arrival_times);
  EXPECT_EQ(t1.arrival_times, t8.arrival_times);
}

TEST(ShardedSimDeterminism, ExecutedEventsPerShardAreThreadInvariant) {
  auto run = [](int threads) {
    constexpr TimeMicros kLookahead = 500;
    ShardedSimulator sim(4, threads, kLookahead);
    for (int s = 0; s < 4; ++s) {
      sim.shard(s).SchedulePeriodic(50 + s, 97 + s, [&sim, s]() {
        if (sim.shard(s).ExecutedEvents() % 5 == 0) {
          sim.Send((s + 3) % 4, 600, []() {});
        }
      });
    }
    sim.RunUntil(Seconds(1));
    std::vector<uint64_t> per_shard;
    for (int s = 0; s < 4; ++s) {
      per_shard.push_back(sim.ExecutedEventsOnShard(s));
    }
    return per_shard;
  };
  const auto t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(8));
}

// -- Invariance to the pending no-op population (DESIGN.md §13) -------------------------------
//
// Barrier times decide the sequence numbers drained mailbox records receive, and with them
// every same-instant tie between a cross-shard arrival and a local event. Windows therefore
// sit on a fixed grid: a shard that merely holds extra no-op events (a cancelled-late timer,
// an idle heartbeat) must not change anything the real events observe.

struct TieContext {
  ShardedSimulator* sim = nullptr;
  std::vector<std::vector<std::string>>* logs = nullptr;
  int shards = 0;
  TimeMicros lookahead = 0;

  void Log(int s, const std::string& what) {
    (*logs)[static_cast<size_t>(s)].push_back(what + "@" + std::to_string(sim->shard(s).Now()));
  }

  // Every time is a multiple of 100 µs and every cross-shard delay a lookahead plus a multiple
  // of 100 µs, so arrivals constantly tie with local events on the destination shard.
  void Tick(int s, int n) {
    Log(s, std::to_string(s) + "#" + std::to_string(n));
    if (n >= 40) {
      return;
    }
    const int to = (s + 1 + n % (shards - 1)) % shards;
    sim->Send(to, lookahead + (n % 3) * 100, [this, to, s, n]() {
      Log(to, "msg" + std::to_string(s) + "#" + std::to_string(n));
    });
    sim->Schedule(100 * (1 + n % 7), [this, s, n]() { Tick(s, n + 1); });
  }
};

std::string RunTies(int threads, bool noops) {
  constexpr int kShards = 4;
  constexpr TimeMicros kLookahead = 1000;
  ShardedSimulator sim(kShards, threads, kLookahead);
  std::vector<std::vector<std::string>> logs(kShards);
  TieContext ctx{&sim, &logs, kShards, kLookahead};
  // A hand-built tie: shard 0's message and shard 1's local event both land on shard 1 at
  // 1050. With windows started at the next pending event, the order flipped on whether some
  // shard held an earlier no-op: [50, 1050] runs the local event before draining the message,
  // [0, 1000] drains the message first.
  sim.shard(0).ScheduleAt(50, [&ctx]() {
    ctx.sim->Send(1, kLookahead, [&ctx]() { ctx.Log(1, "tie-msg"); });
  });
  sim.shard(1).ScheduleAt(1020, [&ctx]() {
    ctx.sim->Schedule(30, [&ctx]() { ctx.Log(1, "tie-local"); });
  });
  for (int s = 0; s < kShards; ++s) {
    sim.shard(s).ScheduleAt(2000 + 300 * s, [&ctx, s]() { ctx.Tick(s, 0); });
    if (noops) {
      sim.shard(s).SchedulePeriodic(7 * (s + 1), 333, []() {});
    }
  }
  sim.RunUntil(Millis(30));
  std::string trace;
  for (const auto& shard_log : logs) {
    for (const std::string& line : shard_log) {
      trace += line;
      trace += '\n';
    }
  }
  return trace + "cross=" + std::to_string(sim.cross_shard_messages());
}

TEST(ShardedSimDeterminism, NoOpEventsDoNotChangeOutcomes) {
  const std::string reference = RunTies(1, /*noops=*/false);
  EXPECT_NE(reference.find("tie-msg@1050\ntie-local@1050"), std::string::npos) << reference;
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(RunTies(threads, /*noops=*/false), reference) << "threads " << threads;
    EXPECT_EQ(RunTies(threads, /*noops=*/true), reference) << "threads " << threads << " +noops";
  }
}

TEST(ShardedSim, LookaheadBoundMatchesLatencyFloor) {
  LatencyModel model(4, Millis(1), Millis(40));
  model.SetLatency(RegionId(1), RegionId(2), Millis(10));
  // Two shards: regions {0, 2} and {1, 3}. The 1<->2 pair crosses shards, so the floor is
  // 10ms shrunk by the jitter band.
  std::vector<int> placement = {0, 1, 0, 1};
  const TimeMicros bound = Network::ShardedLookaheadBound(model, placement, 0.1);
  EXPECT_EQ(bound, static_cast<TimeMicros>(static_cast<double>(Millis(10)) * 0.9));
  // All regions on one shard: no pair crosses, the bound is unconstrained.
  std::vector<int> single = {0, 0, 0, 0};
  EXPECT_EQ(Network::ShardedLookaheadBound(model, single, 0.1),
            std::numeric_limits<TimeMicros>::max());
}

}  // namespace
}  // namespace shardman
