// Unit tests for the discrete-event simulator and the simulated network (plain and sharded).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/network.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace shardman {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&]() { order.push_back(3); });
  sim.Schedule(Millis(10), [&]() { order.push_back(1); });
  sim.Schedule(Millis(20), [&]() { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(SimulatorTest, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Millis(10), [&]() { ++fired; });
  sim.Schedule(Millis(100), [&]() { ++fired; });
  sim.RunUntil(Millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Millis(50));
  sim.RunUntil(Millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(Millis(10), [&]() { ++fired; });
  sim.Schedule(Millis(20), [&]() { ++fired; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelRemovesEventFromQueueImmediately) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(Millis(5), [&]() { ++fired; });
  sim.Schedule(Millis(40), [&]() { ++fired; });
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Cancel(id);
  // Eager removal: the cancelled head is gone before any run loop touches the queue.
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.NextEventTime(), Millis(40));
  sim.RunUntil(Millis(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
  sim.RunUntil(Millis(50));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<TimeMicros> times;
  sim.Schedule(Millis(10), [&]() {
    times.push_back(sim.Now());
    sim.Schedule(Millis(10), [&]() { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Millis(10));
  EXPECT_EQ(times[1], Millis(20));
}

TEST(SimulatorTest, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++fired; });
  sim.RunUntil(Millis(55));
  EXPECT_EQ(fired, 5);
  sim.Cancel(id);
  sim.RunUntil(Millis(200));
  EXPECT_EQ(fired, 5);
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  Simulator sim;
  int fired = 0;
  EventId id;
  id = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (++fired == 3) {
      sim.Cancel(id);
    }
  });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, CancelAfterExecutionIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(Millis(10), [&]() { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  sim.Cancel(id);  // already executed: nothing to cancel, nothing to remember
  sim.Cancel(id);
  sim.Cancel(EventId{});           // invalid id
  sim.Cancel(EventId{0xDEADBEEF});  // never-issued id
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, StaleCancelDoesNotAffectRecycledSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventId a = sim.Schedule(Millis(1), [&]() { ++first; });
  sim.RunAll();
  // The slot `a` used is recycled for `b`; cancelling the stale id must not touch `b`.
  sim.Schedule(Millis(1), [&]() { ++second; });
  sim.Cancel(a);
  sim.RunAll();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, CancelBookkeepingDoesNotGrowOnStaleCancels) {
  // Regression: the old implementation recorded every Cancel of an already-executed or
  // never-scheduled id in an unordered_set that was never pruned, so long-lived sims leaked.
  Simulator sim;
  for (int i = 0; i < 10000; ++i) {
    EventId id = sim.Schedule(1, []() {});
    sim.RunAll();
    sim.Cancel(id);  // stale by the time it is cancelled
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
  // The event slab is bounded by peak concurrency (1 here), not by cancel history.
  EXPECT_LE(sim.EventPoolSlots(), 2u);
}

TEST(SimulatorTest, EventPoolBoundedByPeakPendingEvents) {
  Simulator sim;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 500; ++i) {
      sim.Schedule(Millis(i % 7), []() {});
    }
    sim.RunAll();
  }
  EXPECT_LE(sim.EventPoolSlots(), 500u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, CancelFreesSlotForImmediateReuse) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Millis(10), []() {}));
  }
  EXPECT_EQ(sim.PendingEvents(), 100u);
  const size_t slots = sim.EventPoolSlots();
  for (size_t i = 0; i < ids.size(); ++i) {
    sim.Cancel(ids[i]);
    sim.Cancel(ids[i]);  // double cancel: no-op
    EXPECT_EQ(sim.PendingEvents(), ids.size() - i - 1);
  }
  // Every slot is free again without running anything: new events reuse them at once.
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(Millis(10), []() {});
  }
  EXPECT_EQ(sim.EventPoolSlots(), slots);
  // A stale id still names a reused slot, but its generation no longer matches.
  sim.Cancel(ids.front());
  EXPECT_EQ(sim.PendingEvents(), 100u);
  sim.RunAll();
  EXPECT_EQ(sim.ExecutedEvents(), 100u);
}

TEST(SimulatorTest, SameInstantRunsInScheduleOrderWhenSlotsAreRecycledInReverse) {
  // The free list is a stack, so slots freed in ascending order come back descending: below,
  // every new event gets a lower slot than the one scheduled before it. Same-instant events
  // must still run in scheduling order, which holds only if the heap key orders by sequence
  // number before slot.
  constexpr int kEvents = 64;
  Simulator sim;
  std::vector<EventId> cancelled;
  for (int i = 0; i < kEvents; ++i) {
    cancelled.push_back(sim.Schedule(Millis(1), []() {}));
  }
  for (int i = 0; i < kEvents; ++i) {
    sim.Schedule(Millis(2) + i, []() {});
  }
  for (const EventId& id : cancelled) {
    sim.Cancel(id);  // frees slots 0..63 in ascending order
  }
  sim.RunAll();  // frees slots 64..127 in ascending order
  const size_t slots = sim.EventPoolSlots();
  ASSERT_EQ(slots, 2u * kEvents);

  std::vector<int> order;
  const TimeMicros instant = sim.Now() + Millis(5);
  for (int i = 0; i < 2 * kEvents; ++i) {
    sim.ScheduleAt(instant, [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(sim.EventPoolSlots(), slots);  // every event reused a recycled slot
  sim.RunAll();
  std::vector<int> expected(2 * kEvents);
  for (int i = 0; i < 2 * kEvents; ++i) {
    expected[static_cast<size_t>(i)] = i;
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, RandomScheduleCancelMatchesSortedReference) {
  // Property: whatever mix of schedules, cancels (of pending, fired and cancelled ids) and
  // partial runs, the executed events are exactly the uncancelled ones in (when, seq) order.
  struct Ref {
    TimeMicros when = 0;
    EventId id;
    bool fired = false;
    bool cancelled = false;
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<Ref> refs;
    std::vector<size_t> fired_order;
    size_t pending = 0;
    for (int round = 0; round < 300; ++round) {
      const int64_t schedules = rng.UniformInt(0, 12);
      for (int64_t i = 0; i < schedules; ++i) {
        const size_t seq = refs.size();
        Ref ref;
        ref.when = sim.Now() + rng.UniformInt(0, 40);  // narrow range: many same-instant ties
        ref.id = sim.ScheduleAt(ref.when, [&fired_order, &refs, seq]() {
          refs[seq].fired = true;
          fired_order.push_back(seq);
        });
        refs.push_back(ref);
        ++pending;
      }
      const int64_t cancels = refs.empty() ? 0 : rng.UniformInt(0, 6);
      for (int64_t i = 0; i < cancels; ++i) {
        Ref& ref = refs[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(refs.size()) - 1))];
        sim.Cancel(ref.id);
        if (!ref.fired && !ref.cancelled) {
          ref.cancelled = true;
          --pending;
        }
      }
      ASSERT_EQ(sim.PendingEvents(), pending);
      const size_t fired_before = fired_order.size();
      sim.RunUntil(sim.Now() + rng.UniformInt(0, 25));
      pending -= fired_order.size() - fired_before;
      ASSERT_EQ(sim.PendingEvents(), pending);
    }
    sim.RunAll();
    std::vector<size_t> expected;
    for (size_t seq = 0; seq < refs.size(); ++seq) {
      if (!refs[seq].cancelled) {
        expected.push_back(seq);
      }
    }
    std::stable_sort(expected.begin(), expected.end(), [&refs](size_t a, size_t b) {
      return refs[a].when < refs[b].when;
    });
    EXPECT_EQ(fired_order, expected) << "seed " << seed;
    EXPECT_EQ(sim.PendingEvents(), 0u);
  }
}

TEST(SimulatorTest, PeriodicChainDoesNotGrowPool) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.SchedulePeriodic(Millis(1), Millis(1), [&]() { ++fired; });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fired, 10000);
  EXPECT_LE(sim.EventPoolSlots(), 2u);  // one pending firing at a time
  sim.Cancel(id);
  sim.RunUntil(Seconds(11));
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, CancelPeriodicFromAnotherEvent) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++fired; });
  sim.Schedule(Millis(35), [&]() { sim.Cancel(id); });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(LatencyModelTest, LocalAndWideDefaults) {
  LatencyModel model(3, Millis(1), Millis(50));
  EXPECT_EQ(model.Latency(RegionId(0), RegionId(0)), Millis(1));
  EXPECT_EQ(model.Latency(RegionId(0), RegionId(2)), Millis(50));
  model.SetLatency(RegionId(0), RegionId(1), Millis(80));
  EXPECT_EQ(model.Latency(RegionId(1), RegionId(0)), Millis(80));  // symmetric
}

TEST(NetworkTest, DeliversAfterLatency) {
  Simulator sim;
  Network net(&sim, LatencyModel(2, Millis(1), Millis(40)), 1);
  net.set_jitter_fraction(0.0);
  TimeMicros delivered_at = -1;
  net.Send(RegionId(0), RegionId(1), [&]() { delivered_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(delivered_at, Millis(40));
}

TEST(NetworkTest, JitterBoundsDelivery) {
  Simulator sim;
  Network net(&sim, LatencyModel(2, Millis(1), Millis(40)), 1);
  net.set_jitter_fraction(0.1);
  for (int i = 0; i < 50; ++i) {
    TimeMicros delivered_at = -1;
    TimeMicros start = sim.Now();
    net.Send(RegionId(0), RegionId(1), [&]() { delivered_at = sim.Now(); });
    sim.RunAll();
    TimeMicros latency = delivered_at - start;
    EXPECT_GE(latency, Millis(36));
    EXPECT_LE(latency, Millis(44));
  }
}

// The accounting cases run on a plain network and on a 2-region, 2-shard sharded one (one
// region per shard, sends from the exclusive phase). Both modes share one send path; only the
// delivery step differs, so the same bodies must hold in both.
enum class NetMode { kPlain, kSharded };

struct NetBed {
  NetBed(NetMode mode, uint64_t seed)
      : sharded(/*num_shards=*/2, /*threads=*/1, /*lookahead=*/Millis(10)),
        net(mode == NetMode::kPlain ? &plain : &sharded.shard(0),
            LatencyModel(2, Millis(1), Millis(40)), seed) {
    if (mode == NetMode::kSharded) {
      net.EnableShardedMode(&sharded, {0, 1});
    }
  }

  // Delivers everything sent so far.
  void Run() {
    if (net.sharded()) {
      sharded.RunFor(Seconds(1));
    } else {
      plain.RunAll();
    }
  }

  Simulator plain;
  ShardedSimulator sharded;
  Network net;
};

class NetworkAccountingTest : public ::testing::TestWithParam<NetMode> {};

TEST_P(NetworkAccountingTest, PartitionDropsMessages) {
  NetBed bed(GetParam(), 1);
  Network& net = bed.net;
  net.PartitionRegion(RegionId(1));
  int delivered = 0;
  net.Send(RegionId(0), RegionId(1), [&]() { ++delivered; });
  net.Send(RegionId(1), RegionId(0), [&]() { ++delivered; });
  bed.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 2u);
  net.HealRegion(RegionId(1));
  net.Send(RegionId(0), RegionId(1), [&]() { ++delivered; });
  bed.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_P(NetworkAccountingTest, AsymmetricBlockDropsOneDirectionOnly) {
  NetBed bed(GetParam(), 1);
  Network& net = bed.net;
  net.BlockLink(RegionId(0), RegionId(1));
  EXPECT_TRUE(net.LinkBlocked(RegionId(0), RegionId(1)));
  EXPECT_FALSE(net.LinkBlocked(RegionId(1), RegionId(0)));
  int forward = 0;
  int reverse = 0;
  net.Send(RegionId(0), RegionId(1), [&]() { ++forward; });
  net.Send(RegionId(1), RegionId(0), [&]() { ++reverse; });
  bed.Run();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(reverse, 1);
  // Accounting: both sends counted, one drop attributed to the right regions.
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.region_stats(RegionId(0)).sent, 1u);
  EXPECT_EQ(net.region_stats(RegionId(0)).dropped_out, 1u);
  EXPECT_EQ(net.region_stats(RegionId(1)).dropped_in, 1u);
  EXPECT_EQ(net.region_stats(RegionId(0)).delivered_in, 1u);
  net.UnblockLink(RegionId(0), RegionId(1));
  net.Send(RegionId(0), RegionId(1), [&]() { ++forward; });
  bed.Run();
  EXPECT_EQ(forward, 1);
}

TEST_P(NetworkAccountingTest, LinkLossDropsAFractionOfMessages) {
  NetBed bed(GetParam(), 7);
  Network& net = bed.net;
  LinkQuality lossy;
  lossy.loss_probability = 0.5;
  net.SetLinkQuality(RegionId(0), RegionId(1), lossy);
  int delivered = 0;
  const int kSends = 400;
  for (int i = 0; i < kSends; ++i) {
    net.Send(RegionId(0), RegionId(1), [&]() { ++delivered; });
  }
  bed.Run();
  EXPECT_GT(delivered, kSends / 4);
  EXPECT_LT(delivered, 3 * kSends / 4);
  EXPECT_EQ(net.messages_dropped(), static_cast<uint64_t>(kSends - delivered));
  // The reverse direction is untouched.
  int reverse = 0;
  net.Send(RegionId(1), RegionId(0), [&]() { ++reverse; });
  bed.Run();
  EXPECT_EQ(reverse, 1);
  net.ResetLink(RegionId(0), RegionId(1));
  EXPECT_FALSE(net.link_quality(RegionId(0), RegionId(1)).degraded());
}

TEST_P(NetworkAccountingTest, DuplicationDeliversTwice) {
  NetBed bed(GetParam(), 1);
  Network& net = bed.net;
  LinkQuality dupey;
  dupey.duplicate_probability = 1.0;
  net.SetLinkQuality(RegionId(0), RegionId(1), dupey);
  int delivered = 0;
  // Both copies run the one callback; Send reports how many it scheduled.
  EXPECT_EQ(net.Send(RegionId(0), RegionId(1), [&]() { ++delivered; }), 2);
  EXPECT_EQ(net.Send(RegionId(1), RegionId(0), []() {}), 1);
  bed.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.messages_duplicated(), 1u);
  EXPECT_EQ(net.region_stats(RegionId(1)).delivered_in, 2u);
}

// region_stats returns a value: two regions' stats held at once stay apart. (A reference into
// one shared scratch record would make both read the region summed last.)
TEST_P(NetworkAccountingTest, RegionStatsOfTwoRegionsHeldAtOnceDiffer) {
  NetBed bed(GetParam(), 1);
  Network& net = bed.net;
  for (int i = 0; i < 3; ++i) {
    net.Send(RegionId(0), RegionId(1), []() {});
  }
  net.Send(RegionId(1), RegionId(0), []() {});
  bed.Run();
  const RegionNetStats& r0 = net.region_stats(RegionId(0));
  const RegionNetStats& r1 = net.region_stats(RegionId(1));
  EXPECT_EQ(r0.sent, 3u);
  EXPECT_EQ(r0.delivered_in, 1u);
  EXPECT_EQ(r1.sent, 1u);
  EXPECT_EQ(r1.delivered_in, 3u);
}

INSTANTIATE_TEST_SUITE_P(Modes, NetworkAccountingTest,
                         ::testing::Values(NetMode::kPlain, NetMode::kSharded),
                         [](const ::testing::TestParamInfo<NetMode>& info) {
                           return info.param == NetMode::kPlain ? "Plain" : "Sharded";
                         });

TEST(NetworkTest, LatencyMultiplierScalesDelivery) {
  Simulator sim;
  Network net(&sim, LatencyModel(2, Millis(1), Millis(40)), 1);
  net.set_jitter_fraction(0.0);
  LinkQuality slow;
  slow.latency_multiplier = 4.0;
  net.SetLinkQuality(RegionId(0), RegionId(1), slow);
  TimeMicros delivered_at = -1;
  net.Send(RegionId(0), RegionId(1), [&]() { delivered_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(delivered_at, Millis(160));
  // Unaffected direction still takes the base latency.
  TimeMicros reverse_at = -1;
  TimeMicros start = sim.Now();
  net.Send(RegionId(1), RegionId(0), [&]() { reverse_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(reverse_at - start, Millis(40));
}

}  // namespace
}  // namespace shardman
