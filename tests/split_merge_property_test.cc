// Shard-boundary correctness properties for adaptive split/merge (DESIGN.md §15).
//
// The contract under test: split and merge are *routing-invisible* boundary changes.
//   1. Key-space closure: across randomized split/merge sequences, the live ranges always
//      partition [0, ~0ULL) exactly — no key unowned, none doubly owned — both in the
//      orchestrator's view and in every published shard map (invariant I8).
//   2. Delta/snapshot equivalence: a delta-applying subscriber's map is byte-identical to a
//      snapshot subscriber's at every version delivered across split and merge commits (the
//      range-only delta rows a commit publishes must round-trip like replica-change rows).
//   3. Round-trip: split-then-merge restores the original range, the original key -> shard and
//      key -> primary resolution, and live routing for keys on both sides of the boundary.
//   4. Rejection: boundary ops that would corrupt the key space (edge split keys, non-adjacent
//      merges, splits of retired shards) fail cleanly without a published map change.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/invariant_checker.h"
#include "src/common/rng.h"
#include "src/discovery/shard_map.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

constexpr uint64_t kKeyspaceEnd = ~uint64_t{0};

TestbedConfig SplitBedConfig(uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "splitprop", 8,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.seed = seed;
  return config;
}

// Runs until no structural change is in flight and every replica is ready.
bool AwaitQuiescent(Testbed& bed, TimeMicros timeout) {
  const TimeMicros deadline = bed.sim().Now() + timeout;
  while (bed.sim().Now() < deadline && (bed.orchestrator().structural_change_in_flight() ||
                                        !bed.orchestrator().AllReady())) {
    bed.sim().RunFor(Millis(100));
  }
  return !bed.orchestrator().structural_change_in_flight() && bed.orchestrator().AllReady();
}

// The live ranges, sorted by begin.
std::vector<KeyRange> LiveRanges(Orchestrator& orch) {
  std::vector<KeyRange> ranges;
  for (int s = 0; s < orch.num_shards(); ++s) {
    const KeyRange range = orch.shard_range(ShardId(s));
    if (!range.empty()) {
      ranges.push_back(range);
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.begin < b.begin; });
  return ranges;
}

// Closure: the sorted live ranges exactly partition [0, kKeyspaceEnd).
void ExpectClosure(Orchestrator& orch, const char* when) {
  const std::vector<KeyRange> ranges = LiveRanges(orch);
  ASSERT_FALSE(ranges.empty()) << when;
  uint64_t expected = 0;
  for (const KeyRange& range : ranges) {
    EXPECT_EQ(range.begin, expected) << when;
    EXPECT_GT(range.end, range.begin) << when;
    expected = range.end;
  }
  EXPECT_EQ(expected, kKeyspaceEnd) << when;
}

// Active shards owning at least two keys (splittable), ascending id.
std::vector<ShardId> SplittableShards(Orchestrator& orch) {
  std::vector<ShardId> out;
  for (int s = 0; s < orch.num_shards(); ++s) {
    const KeyRange range = orch.shard_range(ShardId(s));
    if (!range.empty() && range.end - range.begin >= 2) {
      out.push_back(ShardId(s));
    }
  }
  return out;
}

// Adjacent live (left, right) pairs in key order.
std::vector<std::pair<ShardId, ShardId>> AdjacentPairs(Orchestrator& orch) {
  std::vector<std::pair<uint64_t, ShardId>> by_begin;
  for (int s = 0; s < orch.num_shards(); ++s) {
    const KeyRange range = orch.shard_range(ShardId(s));
    if (!range.empty()) {
      by_begin.emplace_back(range.begin, ShardId(s));
    }
  }
  std::sort(by_begin.begin(), by_begin.end());
  std::vector<std::pair<ShardId, ShardId>> pairs;
  for (size_t i = 0; i + 1 < by_begin.size(); ++i) {
    pairs.emplace_back(by_begin[i].second, by_begin[i + 1].second);
  }
  return pairs;
}

// -- 1. Key-space closure under randomized sequences -------------------------------------------

TEST(SplitMergeProperty, RandomizedSequencesPreserveKeySpaceClosure) {
  Testbed bed(SplitBedConfig(4242));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  ExpectClosure(bed.orchestrator(), "initial");

  // I8 (and the rest of the invariant set) sampled continuously between ops, so a transient
  // gap inside a commit publish cannot hide between our explicit checks.
  InvariantChecker checker(&bed);
  checker.Start();

  Rng rng(99);
  int splits = 0;
  int merges = 0;
  for (int op = 0; op < 24; ++op) {
    const bool want_split = rng.UniformInt(0, 2) != 0;  // 2:1 splits, so the space fragments
    if (want_split) {
      const std::vector<ShardId> candidates = SplittableShards(bed.orchestrator());
      ASSERT_FALSE(candidates.empty());
      const ShardId victim = candidates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
      const KeyRange range = bed.orchestrator().shard_range(victim);
      // Any strictly interior key is legal; bias off the midpoint to exercise uneven cuts.
      const uint64_t width = range.end - range.begin;
      const uint64_t split_key =
          range.begin + 1 +
          static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                      std::min<uint64_t>(width - 2, 1 << 30))));
      if (bed.orchestrator().SplitShard(victim, split_key).ok()) {
        ++splits;
      }
    } else {
      const std::vector<std::pair<ShardId, ShardId>> pairs = AdjacentPairs(bed.orchestrator());
      if (!pairs.empty()) {
        const auto [left, right] = pairs[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pairs.size()) - 1))];
        if (bed.orchestrator().MergeShards(left, right).ok()) {
          ++merges;
        }
      }
    }
    ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2))) << "op " << op;
    ExpectClosure(bed.orchestrator(), "after op");
  }
  bed.sim().RunFor(Minutes(1));  // outlast merge drop-grace windows
  checker.Stop();

  EXPECT_GT(splits, 5);
  EXPECT_GT(merges, 0);
  EXPECT_EQ(bed.orchestrator().splits(), splits);
  EXPECT_EQ(bed.orchestrator().merges(), merges);
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectClosure(bed.orchestrator(), "final");
}

// -- 2. Delta subscribers stay byte-identical across splits ------------------------------------

struct DeltaFollower {
  ShardMap own;
  bool has_map = false;
  int64_t deltas = 0;
  std::map<int64_t, std::string> history;  // version -> canonical bytes
};

TEST(SplitMergeProperty, DeltaFollowerByteIdenticalToSnapshotsAcrossSplits) {
  Testbed bed(SplitBedConfig(777));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  DeltaFollower follower;
  std::map<int64_t, std::string> snapshot_history;
  bed.discovery().Subscribe(
      AppId(1),
      [&](const std::shared_ptr<const ShardMap>& map) {
        follower.own = *map;
        follower.has_map = true;
        follower.history[follower.own.version] = SerializeShardMap(follower.own);
      },
      [&](const std::shared_ptr<const ShardMapDelta>& delta) {
        ASSERT_TRUE(follower.has_map);
        ASSERT_TRUE(ApplyShardMapDelta(*delta, &follower.own));
        ++follower.deltas;
        follower.history[follower.own.version] = SerializeShardMap(follower.own);
      });
  bed.discovery().Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    snapshot_history[map->version] = SerializeShardMap(*map);
  });

  // A split cascade, then merges back down: every commit publishes range-only delta rows.
  std::vector<ShardId> parents = SplittableShards(bed.orchestrator());
  for (int i = 0; i < 3; ++i) {
    const ShardId victim = parents[static_cast<size_t>(i) % parents.size()];
    const KeyRange range = bed.orchestrator().shard_range(victim);
    ASSERT_TRUE(
        bed.orchestrator().SplitShard(victim, range.begin + (range.end - range.begin) / 2).ok());
    ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));
  }
  for (int i = 0; i < 2; ++i) {
    const std::vector<std::pair<ShardId, ShardId>> pairs = AdjacentPairs(bed.orchestrator());
    ASSERT_FALSE(pairs.empty());
    ASSERT_TRUE(bed.orchestrator().MergeShards(pairs[0].first, pairs[0].second).ok());
    ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));
  }
  bed.sim().RunFor(Minutes(1));  // final publishes propagate to both subscribers

  EXPECT_GT(follower.deltas, 0) << "splits never exercised the delta path";
  int compared = 0;
  for (const auto& [version, bytes] : follower.history) {
    auto it = snapshot_history.find(version);
    if (it != snapshot_history.end()) {
      EXPECT_EQ(bytes, it->second) << "divergence at version " << version;
      ++compared;
    }
  }
  EXPECT_GT(compared, 2);
}

// -- 3. Split-then-merge round-trips to equivalent routing -------------------------------------

TEST(SplitMergeProperty, SplitThenMergeRoundTripsToEquivalentRouting) {
  Testbed bed(SplitBedConfig(31337));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  // Sample keys spread over the whole space (including both sides of the coming cut).
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 64; ++i) {
    keys.push_back(i * (kKeyspaceEnd / 64) + 3);
  }
  const ShardMap before = *bed.discovery().Current(AppId(1));
  std::vector<ShardId> resolution_before;
  for (uint64_t key : keys) {
    const ShardId shard = before.ShardForKey(key);
    ASSERT_TRUE(shard.valid()) << "key " << key << " unroutable before split";
    resolution_before.push_back(shard);
  }

  const ShardId parent(2);
  const KeyRange original = bed.orchestrator().shard_range(parent);
  const uint64_t split_key = original.begin + (original.end - original.begin) / 2;
  ASSERT_TRUE(bed.orchestrator().SplitShard(parent, split_key).ok());
  ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));

  // Mid-state: the parent kept [begin, split_key), the child owns [split_key, end).
  EXPECT_EQ(bed.orchestrator().shard_range(parent).begin, original.begin);
  EXPECT_EQ(bed.orchestrator().shard_range(parent).end, split_key);
  const ShardId child = bed.orchestrator().ShardForKey(split_key);
  ASSERT_TRUE(child.valid());
  ASSERT_NE(child.value, parent.value);
  EXPECT_EQ(bed.orchestrator().shard_range(child).end, original.end);
  ExpectClosure(bed.orchestrator(), "after split");

  ASSERT_TRUE(bed.orchestrator().MergeShards(parent, child).ok());
  ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));
  bed.sim().RunFor(Minutes(1));  // outlast the merge drop-grace

  // The parent owns its original range again; the child is retired.
  EXPECT_EQ(bed.orchestrator().shard_range(parent), original);
  EXPECT_FALSE(bed.orchestrator().shard_active(child));
  ExpectClosure(bed.orchestrator(), "after merge");

  // Equivalent routing: every key resolves to the same shard it did before the round-trip
  // (replica *placement* may shift — background rebalancing is free to move copies — but the
  // key -> shard contract, and with it request affinity, is restored exactly).
  const ShardMap after = *bed.discovery().Current(AppId(1));
  for (size_t i = 0; i < keys.size(); ++i) {
    const ShardId shard = after.ShardForKey(keys[i]);
    ASSERT_TRUE(shard.valid()) << "key " << keys[i] << " unroutable after round-trip";
    EXPECT_EQ(shard.value, resolution_before[i].value) << "key " << keys[i];
    EXPECT_TRUE(after.PrimaryOf(shard).valid()) << "key " << keys[i];
  }

  // Live routing across the healed boundary succeeds for every sample.
  std::unique_ptr<ServiceRouter> router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));  // the router receives its first map
  int64_t routed_ok = 0;
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

// -- 4. Corrupting boundary ops are rejected without a publish ---------------------------------

TEST(SplitMergeProperty, IllegalBoundaryOpsRejectedWithoutMapChange) {
  Testbed bed(SplitBedConfig(5));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  const int64_t version_before = bed.discovery().Current(AppId(1))->version;

  const ShardId shard(1);
  const KeyRange range = bed.orchestrator().shard_range(shard);
  // Split keys on (or outside) the boundary would create an empty half.
  EXPECT_FALSE(bed.orchestrator().SplitShard(shard, range.begin).ok());
  EXPECT_FALSE(bed.orchestrator().SplitShard(shard, range.end).ok());
  // Merging non-adjacent shards (0 and 2 with 1 between) would tear a hole.
  EXPECT_FALSE(bed.orchestrator().MergeShards(ShardId(0), ShardId(2)).ok());
  // Wrong order: right must follow left in key order.
  EXPECT_FALSE(bed.orchestrator().MergeShards(ShardId(1), ShardId(0)).ok());
  // A retired shard cannot split: retire one via a real merge first.
  ASSERT_TRUE(bed.orchestrator().MergeShards(ShardId(0), ShardId(1)).ok());
  ASSERT_TRUE(AwaitQuiescent(bed, Minutes(2)));
  EXPECT_FALSE(bed.orchestrator().shard_active(ShardId(1)));
  const KeyRange merged = bed.orchestrator().shard_range(ShardId(0));
  EXPECT_FALSE(
      bed.orchestrator().SplitShard(ShardId(1), merged.begin + (merged.end - merged.begin) / 2)
          .ok());

  bed.sim().RunFor(Seconds(5));
  // Only the legal merge published; the rejected ops left no trace.
  const ShardMap* current = bed.discovery().Current(AppId(1));
  EXPECT_GT(current->version, version_before);
  ExpectClosure(bed.orchestrator(), "after rejections");
}

}  // namespace
}  // namespace shardman
