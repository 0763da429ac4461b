// Adaptive split/merge under fire (DESIGN.md §15): the boundary-change protocol against the
// chaos fault matrix, with the full invariant set — I1..I7 plus I8 (key-space closure: no key
// is ever unroutable or doubly owned, including mid-split handoff) — sampled continuously.
//
// Three scenarios:
//   1. Fault matrix: scripted random splits/merges race server crashes, session-expiry storms,
//      watch-delay spikes and map-delivery loss. Ops legitimately fail while shards are
//      non-quiescent; whatever commits must keep the key space closed.
//   2. Leader loss mid-split (replicated control plane): the leader dies between the split's
//      op-log record and its commit publish; the successor reconciles from the op-log and the
//      persisted ranges, and the key space is closed on every published map either side of the
//      failover.
//   3. Map-delivery loss across a split commit: subscribers keep serving on the stale pre-split
//      map (the parent's replicas still host the moved keys — the handoff guarantee), then
//      recover via snapshot fallback once deliveries heal.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/chaos/invariant_checker.h"
#include "src/common/rng.h"
#include "src/discovery/shard_map.h"
#include "src/smr/replica_set.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

constexpr uint64_t kKeyspaceEnd = ~uint64_t{0};

TestbedConfig AdaptiveBedConfig(uint64_t seed, bool smr) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "adaptive", 8,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  if (smr) {
    config.smr.num_replicas = 3;
  }
  config.seed = seed;
  return config;
}

bool AwaitQuiescent(Testbed& bed, TimeMicros timeout) {
  const TimeMicros deadline = bed.sim().Now() + timeout;
  while (bed.sim().Now() < deadline && (bed.orchestrator().structural_change_in_flight() ||
                                        !bed.orchestrator().AllReady())) {
    bed.sim().RunFor(Millis(100));
  }
  return !bed.orchestrator().structural_change_in_flight() && bed.orchestrator().AllReady();
}

void ExpectClosure(Orchestrator& orch, const char* when) {
  std::vector<KeyRange> ranges;
  for (int s = 0; s < orch.num_shards(); ++s) {
    const KeyRange range = orch.shard_range(ShardId(s));
    if (!range.empty()) {
      ranges.push_back(range);
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.begin < b.begin; });
  ASSERT_FALSE(ranges.empty()) << when;
  uint64_t expected = 0;
  for (const KeyRange& range : ranges) {
    EXPECT_EQ(range.begin, expected) << when;
    expected = range.end;
  }
  EXPECT_EQ(expected, kKeyspaceEnd) << when;
}

// -- 1. Fault matrix --------------------------------------------------------------------------

TEST(AdaptiveChaos, SplitMergeSequenceSurvivesFaultMatrix) {
  Testbed bed(AdaptiveBedConfig(606, /*smr=*/false));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  InvariantChecker checker(&bed);
  checker.Start();

  ChaosConfig chaos;
  chaos.mix = {{FaultKind::kServerCrash, 2.0},
               {FaultKind::kSessionExpiryStorm, 1.0},
               {FaultKind::kWatchDelaySpike, 1.0},
               {FaultKind::kMapDeliveryLoss, 1.0}};
  chaos.mean_fault_interval = Seconds(12);
  chaos.min_duration = Seconds(4);
  chaos.max_duration = Seconds(12);
  chaos.storm_sessions = 2;
  chaos.seed = 606;
  FaultInjector injector(&bed, chaos, &checker);
  checker.set_context_fn([&injector]() { return injector.JournalDump(); });
  injector.Start();

  RequestSourceConfig traffic;
  traffic.requests_per_second = 30;
  traffic.seed = 607;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  // Boundary ops on a fixed cadence, racing whatever the injector has active. Failures are
  // expected (non-quiescent shards refuse); closure must hold regardless of which ops landed.
  Rng rng(608);
  int attempted = 0;
  int landed = 0;
  for (int op = 0; op < 12; ++op) {
    bed.sim().RunFor(Seconds(10));
    Orchestrator& orch = bed.orchestrator();
    if (rng.UniformInt(0, 2) != 0) {
      // Split the widest live shard off-center.
      ShardId victim;
      uint64_t best_width = 1;
      for (int s = 0; s < orch.num_shards(); ++s) {
        const KeyRange range = orch.shard_range(ShardId(s));
        if (!range.empty() && range.end - range.begin > best_width) {
          victim = ShardId(s);
          best_width = range.end - range.begin;
        }
      }
      if (victim.valid()) {
        ++attempted;
        const KeyRange range = orch.shard_range(victim);
        if (orch.SplitShard(victim, range.begin + (range.end - range.begin) / 3).ok()) {
          ++landed;
        }
      }
    } else {
      // Merge the first adjacent live pair.
      std::vector<std::pair<uint64_t, ShardId>> by_begin;
      for (int s = 0; s < orch.num_shards(); ++s) {
        const KeyRange range = orch.shard_range(ShardId(s));
        if (!range.empty()) {
          by_begin.emplace_back(range.begin, ShardId(s));
        }
      }
      std::sort(by_begin.begin(), by_begin.end());
      if (by_begin.size() >= 2) {
        ++attempted;
        if (orch.MergeShards(by_begin[0].second, by_begin[1].second).ok()) {
          ++landed;
        }
      }
    }
  }
  injector.Stop();
  bed.sim().RunFor(Minutes(2));  // all faults heal
  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(5))) << checker.Report();
  source.Stop();
  checker.Stop();

  EXPECT_GT(injector.faults_injected(), 0);
  EXPECT_GT(attempted, 0);
  EXPECT_GT(landed, 0) << "every boundary op was refused; the matrix never tested a commit";
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectClosure(bed.orchestrator(), "after chaos");
  EXPECT_GT(source.totals().success_rate(), 0.9);
}

// -- 2. Leader loss mid-split -----------------------------------------------------------------

TEST(AdaptiveChaos, LeaderLossMidSplitPreservesClosureAndConverges) {
  Testbed bed(AdaptiveBedConfig(21, /*smr=*/true));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  ASSERT_NE(bed.replica_set(), nullptr);
  bed.sim().RunFor(Seconds(30));

  InvariantChecker checker(&bed);
  checker.Start();

  const ShardId parent(3);
  const KeyRange range = bed.orchestrator().shard_range(parent);
  ASSERT_TRUE(
      bed.orchestrator().SplitShard(parent, range.begin + (range.end - range.begin) / 2).ok());
  // The child's placement ops have not run a single sim event yet: the split is mid-handoff,
  // its kSplit op-log record written but the commit publish still in the future.
  ASSERT_TRUE(bed.orchestrator().structural_change_in_flight());

  const int64_t epoch_before = bed.replica_set()->leadership_epoch();
  bed.replica_set()->KillLeader();
  bed.sim().RunFor(Minutes(2));

  EXPECT_GT(bed.replica_set()->leadership_epoch(), epoch_before);
  EXPECT_TRUE(AwaitQuiescent(bed, Minutes(5)));
  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(5))) << checker.Report();
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectClosure(bed.orchestrator(), "after failover");

  // Every key on both sides of the attempted cut routes successfully.
  std::unique_ptr<ServiceRouter> router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));  // the router receives its first map
  int64_t routed_ok = 0;
  const std::vector<uint64_t> keys = {range.begin, range.begin + (range.end - range.begin) / 2,
                                      range.end - 1, 0, kKeyspaceEnd - 1};
  for (uint64_t key : keys) {
    router->Route(key, RequestType::kRead, [&](const RequestOutcome& outcome) {
      if (outcome.success) {
        ++routed_ok;
      }
    });
  }
  bed.sim().RunFor(Seconds(10));
  EXPECT_EQ(routed_ok, static_cast<int64_t>(keys.size()));
}

// -- 3. Map-delivery loss across a split commit ------------------------------------------------

TEST(AdaptiveChaos, MapDeliveryLossAcrossSplitCommitRecoversViaSnapshotFallback) {
  Testbed bed(AdaptiveBedConfig(909, /*smr=*/false));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  InvariantChecker checker(&bed);
  checker.Start();

  std::unique_ptr<ServiceRouter> router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));  // the router receives the pre-split map

  const ShardId parent(4);
  const KeyRange range = bed.orchestrator().shard_range(parent);
  const uint64_t split_key = range.begin + (range.end - range.begin) / 2;
  std::vector<uint64_t> keys = {range.begin, split_key - 1, split_key, range.end - 1};

  // Total delivery loss: the split's delta (and any snapshot) never reaches subscribers.
  bed.discovery().SetDeliveryLoss(1.0, 909);
  ASSERT_TRUE(bed.orchestrator().SplitShard(parent, split_key).ok());
  const TimeMicros deadline = bed.sim().Now() + Minutes(2);
  while (bed.sim().Now() < deadline && bed.orchestrator().structural_change_in_flight()) {
    bed.sim().RunFor(Millis(100));
  }
  ASSERT_FALSE(bed.orchestrator().structural_change_in_flight());
  ExpectClosure(bed.orchestrator(), "post-commit under loss");

  // Handoff guarantee: clients on the stale pre-split map must still reach every key — the
  // parent's replicas keep serving the child's keys for exactly this window.
  int64_t stale_ok = 0;
  for (uint64_t key : keys) {
    router->Route(key, RequestType::kRead, [&](const RequestOutcome& outcome) {
      if (outcome.success) {
        ++stale_ok;
      }
    });
  }
  bed.sim().RunFor(Seconds(5));
  EXPECT_EQ(stale_ok, static_cast<int64_t>(keys.size())) << "key unroutable during handoff";

  // Heal deliveries; the next publish (a merge of two other shards) arrives as a delta that
  // does not chain onto the stale version — subscribers must fall back to a snapshot.
  const int64_t fallbacks_before = bed.discovery().snapshot_fallbacks();
  bed.discovery().SetDeliveryLoss(0.0, 0);
  ASSERT_TRUE(bed.orchestrator().MergeShards(ShardId(0), ShardId(1)).ok());
  ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));
  bed.sim().RunFor(Seconds(10));
  EXPECT_GT(bed.discovery().snapshot_fallbacks(), fallbacks_before);

  int64_t fresh_ok = 0;
  for (uint64_t key : keys) {
    router->Route(key, RequestType::kRead, [&](const RequestOutcome& outcome) {
      if (outcome.success) {
        ++fresh_ok;
      }
    });
  }
  bed.sim().RunFor(Seconds(5));
  EXPECT_EQ(fresh_ok, static_cast<int64_t>(keys.size()));
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace shardman
