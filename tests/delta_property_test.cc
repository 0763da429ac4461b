// Delta shard-map dissemination tests (DESIGN.md §10).
//
// The contract under test: delta dissemination is an *optimization with no observable effect*.
//   1. Diff/apply round-trip: applying DiffShardMaps(from, to) onto `from` reproduces `to`
//      byte-for-byte (randomized map mutations, including grow/shrink).
//   2. End-to-end property: in a seeded testbed driving randomized rebalances, failovers,
//      session expiries and rolling upgrades, a delta-applying subscriber's map is
//      byte-identical to a snapshot-applying subscriber's map at every delivered version —
//      and the whole delivered history is invariant across solver thread counts {1, 8}.
//   3. Churn/gaps: late subscribers, dropped deliveries and unsubscribe/resubscribe always
//      converge via snapshot fallback, and sm.discovery.snapshot_fallbacks counts exactly the
//      injected gaps. The chaos engine's map-delivery-loss fault composes with real churn.
//   4. Router equivalence: a long-lived router's patched cache yields the same map and
//      PickTarget decisions as a fresh router's full rebuild at each checkpoint across failover
//      publishes (cache_rebuilds flat, cache_patches rising).
//   5. Leader kill mid-operation: killing the single control-plane replica while a drain has
//      placement operations in flight converges again — the re-elected term reconciles exactly
//      the logged tail, at most one orchestrator passes the write fence, and the delta
//      follower stays byte-identical to the snapshot subscriber across the kill.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/obs/obs.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

int64_t ObsCounter(const char* name) {
  return obs::DefaultMetrics().Snapshot().CounterValue(name);
}

ShardMap MakeMap(AppId app, int64_t version, int shards) {
  ShardMap map;
  map.app = app;
  map.version = version;
  map.entries.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ShardMapEntry& entry = map.entries[static_cast<size_t>(s)];
    entry.shard = ShardId(s);
    for (int r = 0; r < 2; ++r) {
      ShardMapReplica replica;
      replica.server = ServerId(100 + s * 2 + r);
      replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
      replica.region = RegionId(r);
      entry.replicas.push_back(replica);
    }
  }
  return map;
}

// Bumps the version and rewrites `touched` entries (wrapping over the shard space) so
// consecutive versions differ in a known, small set of rows.
ShardMap MutateMap(const ShardMap& prev, int touched) {
  ShardMap next = prev;
  ++next.version;
  const int shards = static_cast<int>(next.entries.size());
  for (int i = 0; i < touched; ++i) {
    int s = static_cast<int>((next.version * 7 + i) % shards);
    ShardMapEntry& entry = next.entries[static_cast<size_t>(s)];
    for (ShardMapReplica& replica : entry.replicas) {
      replica.server = ServerId(replica.server.value + 1000);
    }
  }
  return next;
}

// -- 1. Diff/apply round-trip ------------------------------------------------------------------

TEST(DeltaRoundTrip, RandomizedDiffApplyReproducesTargetExactly) {
  Rng rng(9001);
  ShardMap current = MakeMap(AppId(3), 1, 32);
  for (int iter = 0; iter < 300; ++iter) {
    ShardMap next = current;
    ++next.version;
    // Random mutation mix: rewrite rows, grow, or shrink.
    switch (rng.UniformInt(0, 3)) {
      case 0:  // touch a few rows
      case 1: {
        int touched = static_cast<int>(rng.UniformInt(0, 5));
        for (int i = 0; i < touched && !next.entries.empty(); ++i) {
          size_t s = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(next.entries.size()) - 1));
          for (ShardMapReplica& replica : next.entries[s].replicas) {
            replica.server = ServerId(static_cast<int32_t>(rng.UniformInt(0, 5000)));
            replica.region = RegionId(static_cast<int32_t>(rng.UniformInt(0, 3)));
          }
        }
        break;
      }
      case 2: {  // grow
        int grow = static_cast<int>(rng.UniformInt(1, 8));
        int base = static_cast<int>(next.entries.size());
        for (int i = 0; i < grow; ++i) {
          ShardMapEntry entry;
          entry.shard = ShardId(base + i);
          ShardMapReplica replica;
          replica.server = ServerId(static_cast<int32_t>(rng.UniformInt(0, 5000)));
          replica.role = ReplicaRole::kPrimary;
          replica.region = RegionId(0);
          entry.replicas.push_back(replica);
          next.entries.push_back(entry);
        }
        break;
      }
      case 3: {  // shrink (never below 1 shard)
        if (next.entries.size() > 1) {
          next.entries.resize(next.entries.size() -
                              static_cast<size_t>(rng.UniformInt(
                                  1, static_cast<int64_t>(next.entries.size()) - 1)));
        }
        break;
      }
    }

    ShardMapDelta delta = DiffShardMaps(current, next);
    EXPECT_EQ(delta.from_version, current.version);
    EXPECT_EQ(delta.to_version, next.version);
    // Minimality: every shipped row genuinely differs from (or did not exist in) the base.
    for (const ShardMapEntry& entry : delta.changed) {
      size_t idx = static_cast<size_t>(entry.shard.value);
      if (idx < current.entries.size()) {
        EXPECT_NE(current.entries[idx], entry);
      }
    }

    ShardMap applied = current;
    ASSERT_TRUE(ApplyShardMapDelta(delta, &applied));
    EXPECT_EQ(SerializeShardMap(applied), SerializeShardMap(next)) << "iter " << iter;

    // A non-chaining apply must refuse and leave the map untouched.
    ShardMap wrong_base = current;
    wrong_base.version = current.version - 1;
    std::string before = SerializeShardMap(wrong_base);
    EXPECT_FALSE(ApplyShardMapDelta(delta, &wrong_base));
    EXPECT_EQ(SerializeShardMap(wrong_base), before);

    current = std::move(next);
  }
}

// -- 2. End-to-end property --------------------------------------------------------------------

// A delta-capable subscriber that maintains its own map the way SmLibrary/ServiceRouter do:
// snapshots replace it, deltas patch it. Records the serialized bytes at every version reached.
struct DeltaFollower {
  ShardMap own;
  bool has_map = false;
  int64_t snapshots = 0;
  int64_t deltas = 0;
  std::map<int64_t, std::string> history;  // version -> canonical bytes

  ServiceDiscovery::MapCallback SnapshotCb() {
    return [this](const std::shared_ptr<const ShardMap>& map) {
      own = *map;
      has_map = true;
      ++snapshots;
      history[own.version] = SerializeShardMap(own);
    };
  }
  ServiceDiscovery::DeltaCallback DeltaCb() {
    return [this](const std::shared_ptr<const ShardMapDelta>& delta) {
      ASSERT_TRUE(has_map);
      ASSERT_TRUE(ApplyShardMapDelta(*delta, &own));
      ++deltas;
      history[own.version] = SerializeShardMap(own);
    };
  }
};

struct PropertyRun {
  std::string digest;  // concatenated version->bytes history of the delta follower
  int64_t delta_applies = 0;
  int64_t final_version = 0;
};

TestbedConfig PropertyBedConfig(uint64_t seed, int solver_threads) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "delta-prop", 24,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = seed;
  config.mini_sm.orchestrator.solver_threads = solver_threads;
  return config;
}

// Drives a seeded random sequence of rebalances/failovers/upgrades with two discovery
// subscribers attached: a snapshot-only subscriber (ground truth — it always receives
// the published map itself) and a delta follower. At every version both delivered, the
// follower's patched map must serialize identically to the published snapshot. Returns the
// follower's full delivered history for cross-thread-count comparison.
PropertyRun RunDeltaPropertyScenario(uint64_t seed, int solver_threads) {
  PropertyRun result;
  Testbed bed(PropertyBedConfig(seed, solver_threads));
  bed.Start();
  EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  DeltaFollower follower;
  std::map<int64_t, std::string> snapshot_history;
  bed.discovery().Subscribe(AppId(1), follower.SnapshotCb(), follower.DeltaCb());
  bed.discovery().Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    snapshot_history[map->version] = SerializeShardMap(*map);
  });

  Rng rng(seed * 2654435761ULL + 17);
  std::vector<ServerId> servers = bed.servers();
  for (int op = 0; op < 6; ++op) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // rebalance: drain a server so its shards move elsewhere
        ServerId victim = servers[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
        bed.orchestrator().DrainServer(victim, true, true, []() {});
        break;
      }
      case 1: {  // failover: a server's coordination session expires, primaries are fenced
        ServerId victim = servers[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
        bed.ExpireServerSession(victim, Seconds(10));
        break;
      }
      case 2: {  // upgrade: rolling restart across every region
        if (!bed.UpgradeInProgress()) {
          bed.StartRollingUpgradeEverywhere(1, Seconds(2));
        }
        break;
      }
      case 3: {  // autoscale: fresh capacity pulls shards toward it
        std::vector<ServerId> added =
            bed.ScaleOut(RegionId(static_cast<int32_t>(rng.UniformInt(0, 1))), 1);
        servers.insert(servers.end(), added.begin(), added.end());
        break;
      }
    }
    bed.sim().RunFor(Seconds(30));
  }
  bed.sim().RunFor(Minutes(2));  // quiesce: the last publish propagates everywhere

  // Byte-identity at every version both subscribers delivered.
  EXPECT_GT(follower.deltas, 0) << "scenario never exercised the delta path";
  int compared = 0;
  for (const auto& [version, bytes] : follower.history) {
    auto it = snapshot_history.find(version);
    if (it != snapshot_history.end()) {
      EXPECT_EQ(bytes, it->second) << "divergence at version " << version;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);

  // Convergence: after quiescing, the follower holds exactly the authoritative map.
  const ShardMap* current = bed.discovery().Current(AppId(1));
  EXPECT_NE(current, nullptr);
  if (current == nullptr) {
    return result;
  }
  EXPECT_EQ(follower.own.version, current->version);
  EXPECT_EQ(SerializeShardMap(follower.own), SerializeShardMap(*current));

  for (const auto& [version, bytes] : follower.history) {
    result.digest += std::to_string(version) + "\n" + bytes;
  }
  result.delta_applies = follower.deltas;
  result.final_version = current->version;
  return result;
}

TEST(DeltaProperty, DeltaFollowerByteIdenticalToSnapshotsAcrossSeeds) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    RunDeltaPropertyScenario(seed, 1);
  }
}

TEST(DeltaProperty, DeliveredHistoryInvariantAcrossSolverThreads) {
  PropertyRun one = RunDeltaPropertyScenario(404, 1);
  PropertyRun eight = RunDeltaPropertyScenario(404, 8);
  EXPECT_GT(one.final_version, 0);
  EXPECT_EQ(one.final_version, eight.final_version);
  EXPECT_EQ(one.delta_applies, eight.delta_applies);
  EXPECT_EQ(one.digest, eight.digest);
}

// -- 3. Churn: gaps always converge via snapshot fallback --------------------------------------

// Deterministic gap injection at the discovery layer: FIFO channels deliver in version order,
// and a surgical filter drops exactly the chosen (subscriber, version) pairs — so the expected
// fallback count is computable by hand and asserted *exactly*.
TEST(DeltaChurn, FallbackCountMatchesInjectedGapsExactly) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(10), 7);
  const int64_t obs_fallbacks_before = ObsCounter("sm.discovery.snapshot_fallbacks");

  auto drops = std::make_shared<std::set<std::pair<int64_t, int64_t>>>();
  discovery.SetDeliveryFilter([drops](int64_t subscription, int64_t version) {
    return drops->count({subscription, version}) == 0;
  });

  const int kShards = 8;
  const int kTouched = 2;
  DeltaFollower a;
  int64_t sub_a = discovery.Subscribe(AppId(1), a.SnapshotCb(), a.DeltaCb());

  ShardMap map = MakeMap(AppId(1), 1, kShards);
  discovery.Publish(map);  // v1: A's initial read — the first published version, NOT a gap
  sim.RunAll();
  EXPECT_EQ(a.snapshots, 1);
  EXPECT_EQ(discovery.snapshot_fallbacks(), 0);

  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v2: chains onto v1 -> delta
  sim.RunAll();
  EXPECT_EQ(a.deltas, 1);

  drops->insert({sub_a, 3});
  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v3: dropped for A
  sim.RunAll();
  EXPECT_EQ(discovery.dropped_deliveries(), 1);

  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v4: A has a gap (holds v2, delta base is v3) -> fallback #1
  sim.RunAll();
  EXPECT_EQ(discovery.snapshot_fallbacks(), 1);
  EXPECT_EQ(a.own.version, 4);

  DeltaFollower b;
  int64_t sub_b =
      discovery.Subscribe(AppId(1), b.SnapshotCb(), b.DeltaCb());  // late join -> fallback #2
  sim.RunAll();
  EXPECT_EQ(discovery.snapshot_fallbacks(), 2);
  EXPECT_EQ(b.own.version, 4);

  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v5: deltas for both
  sim.RunAll();
  EXPECT_EQ(a.deltas, 2);
  EXPECT_EQ(b.deltas, 1);

  // Unsubscribe/resubscribe mid-stream: the fresh subscription's initial read of a
  // mid-stream version is a gap -> fallback #3.
  discovery.Unsubscribe(sub_b);
  DeltaFollower b2;
  int64_t sub_b2 = discovery.Subscribe(AppId(1), b2.SnapshotCb(), b2.DeltaCb());
  sim.RunAll();
  EXPECT_EQ(discovery.snapshot_fallbacks(), 3);
  EXPECT_EQ(b2.own.version, 5);

  // Two consecutive drops heal with ONE fallback at the next successful delivery.
  drops->insert({sub_a, 6});
  drops->insert({sub_a, 7});
  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v6: dropped for A, delta for b2
  sim.RunAll();
  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v7: dropped for A, delta for b2
  sim.RunAll();
  map = MutateMap(map, kTouched);
  discovery.Publish(map);  // v8: A falls back (#4), delta for b2
  sim.RunAll();

  EXPECT_EQ(discovery.snapshot_fallbacks(), 4);
  EXPECT_EQ(discovery.dropped_deliveries(), 3);
  EXPECT_EQ(discovery.delta_deliveries(), 6);  // A: v2,v5; B: v5; b2: v6,v7,v8
  EXPECT_EQ(discovery.delta_entries_shipped(), 6 * kTouched);
  EXPECT_EQ(ObsCounter("sm.discovery.snapshot_fallbacks") - obs_fallbacks_before, 4);

  // Everyone converged to the authoritative map despite every kind of gap.
  std::string truth = SerializeShardMap(*discovery.Current(AppId(1)));
  EXPECT_EQ(SerializeShardMap(a.own), truth);
  EXPECT_EQ(SerializeShardMap(b2.own), truth);
}

// The chaos engine's map-delivery-loss fault composes with real churn: subscribers that miss
// deliveries while the fault is active converge via snapshot fallback once dissemination
// heals and the next version is published.
TEST(DeltaChurn, ChaosDeliveryLossConvergesAfterHeal) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "delta-chaos", 24,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 515;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  auto router0 = bed.CreateRouter(RegionId(0));
  auto router1 = bed.CreateRouter(RegionId(1));
  bed.sim().RunFor(Seconds(2));
  ASSERT_NE(router0->map(), nullptr);

  ChaosConfig chaos;
  chaos.mean_fault_interval = Seconds(15);
  chaos.min_duration = Seconds(10);
  chaos.max_duration = Seconds(30);
  chaos.max_map_loss_probability = 0.5;
  chaos.seed = 99;
  chaos.mix.push_back(FaultWeight{FaultKind::kMapDeliveryLoss, 1.0});
  FaultInjector injector(&bed, chaos);
  injector.Start();

  // Churn while deliveries are lossy: drains force publishes whose deltas some subscribers
  // (routers and every server's SmLibrary watcher) will miss.
  std::vector<ServerId> servers = bed.servers();
  for (int i = 0; i < 4; ++i) {
    bed.orchestrator().DrainServer(servers[static_cast<size_t>(i) * 3], true, true, []() {});
    bed.sim().RunFor(Seconds(30));
  }
  injector.Stop();
  bed.sim().RunFor(Minutes(1));  // active loss window heals (filter cleared)

  // One more publish after dissemination healed: everyone must converge on it.
  bed.orchestrator().DrainServer(servers[1], true, true, []() {});
  bed.sim().RunFor(Minutes(2));

  EXPECT_NE(injector.JournalDump().find("map-delivery-loss"), std::string::npos);
  EXPECT_GT(bed.discovery().dropped_deliveries(), 0);
  EXPECT_GT(bed.discovery().snapshot_fallbacks(), 0);

  const ShardMap* current = bed.discovery().Current(AppId(1));
  ASSERT_NE(current, nullptr);
  std::string truth = SerializeShardMap(*current);
  ASSERT_NE(router0->map(), nullptr);
  ASSERT_NE(router1->map(), nullptr);
  EXPECT_EQ(SerializeShardMap(*router0->map()), truth);
  EXPECT_EQ(SerializeShardMap(*router1->map()), truth);
}

// -- 4. Router equivalence: patch == rebuild ----------------------------------------------------

// A long-lived router that patched its cache through every publish must be indistinguishable
// from a fresh router whose one full RebuildCache read the published snapshot: same map bytes,
// same PickTarget decisions for the same request stream. Picks draw from the router's seeded
// rotation stream, so each checkpoint has its own long-lived twin, seeded like the fresh router
// and silent until its checkpoint. A fixed 300 ms discovery delay lands each fresh router's
// initial read inside the one second the checkpoint waits for it.
TEST(RouterEquivalence, PatchedCacheMatchesFullRebuildAcrossFailover) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "delta-equiv", 32,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 616;
  config.discovery_min_delay = Millis(300);
  config.discovery_max_delay = Millis(300);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  auto make_router = [&bed]() {
    return std::make_unique<ServiceRouter>(&bed.sim(), &bed.network(), &bed.discovery(),
                                           &bed.registry(), &bed.spec(), RegionId(0),
                                           RouterConfig{}, /*seed=*/4242);
  };
  auto picks = [&bed](ServiceRouter& router) {
    std::vector<int32_t> out;
    for (int i = 0; i < 64; ++i) {
      Request request;
      request.app = bed.spec().id;
      request.key = static_cast<uint64_t>(i) * 2654435761ULL;
      request.shard = bed.spec().ShardForKey(request.key);
      request.type = (i % 3 == 0) ? RequestType::kWrite : RequestType::kRead;
      request.client_region = RegionId(0);
      out.push_back(router.PickTargetForBench(request, 1, ServerId()).value);
      out.push_back(router.PickTargetForBench(request, 2, bed.servers().front()).value);
    }
    return out;
  };

  // Checkpoints: the initial map, then after each of two drains (failover publishes).
  const std::vector<ServerId> servers = bed.servers();
  const std::vector<ServerId> drains = {ServerId(), servers[0], servers[3]};
  std::vector<std::unique_ptr<ServiceRouter>> patched;
  for (size_t k = 0; k < drains.size(); ++k) {
    patched.push_back(make_router());
  }
  bed.sim().RunFor(Seconds(2));

  for (size_t k = 0; k < drains.size(); ++k) {
    if (drains[k].valid()) {
      bed.orchestrator().DrainServer(drains[k], true, true, []() {});
      bed.sim().RunFor(Minutes(2));
    }
    auto fresh = make_router();
    bed.sim().RunFor(Seconds(1));  // the fresh router's initial read
    ASSERT_NE(fresh->map(), nullptr);
    EXPECT_EQ(fresh->cache_rebuilds(), 1);
    EXPECT_EQ(fresh->cache_patches(), 0);
    const ShardMap* current = bed.discovery().Current(AppId(1));
    ASSERT_NE(patched[k]->map(), nullptr);
    EXPECT_EQ(patched[k]->map()->version, current->version);
    EXPECT_EQ(SerializeShardMap(*fresh->map()), SerializeShardMap(*current));
    EXPECT_EQ(SerializeShardMap(*patched[k]->map()), SerializeShardMap(*current));
    EXPECT_EQ(picks(*patched[k]), picks(*fresh)) << "checkpoint " << k;
  }

  // Each long-lived router rebuilt once (its initial snapshot) and patched every later version.
  EXPECT_GT(bed.discovery().Current(AppId(1))->version, 1);
  for (const auto& router : patched) {
    EXPECT_EQ(router->cache_rebuilds(), 1);
    EXPECT_GT(router->cache_patches(), 1);
  }
}

// -- 5. Leader kill with operations in flight -----------------------------------------------------

TEST(LeaderKillProperty, SingleReplicaKillMidDrainReconcilesTailAndKeepsDeltasExact) {
  Testbed bed(PropertyBedConfig(717, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  ControlPlaneReplicaSet* set = bed.replica_set();
  ASSERT_EQ(set->num_replicas(), 1);

  DeltaFollower follower;
  std::map<int64_t, std::string> snapshot_history;
  bed.discovery().Subscribe(AppId(1), follower.SnapshotCb(), follower.DeltaCb());
  bed.discovery().Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    snapshot_history[map->version] = SerializeShardMap(*map);
  });

  // Start a drain and step until its operations are logged as in flight.
  bed.orchestrator().DrainServer(bed.servers().front(), true, true, []() {});
  const TimeMicros deadline = bed.sim().Now() + Seconds(10);
  while (bed.sim().Now() < deadline && set->op_log().IncompleteTail().empty()) {
    bed.sim().RunFor(Millis(5));
  }
  const size_t tail = set->op_log().IncompleteTail().size();
  ASSERT_GT(tail, 0u) << "the drain never put an operation in flight";
  const int64_t version_at_kill = bed.discovery().Current(AppId(1))->version;

  set->KillLeader();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  EXPECT_EQ(set->leadership_epoch(), 2);
  EXPECT_EQ(set->failovers(), 1);
  EXPECT_EQ(bed.orchestrator().reconciled_ops(), static_cast<int64_t>(tail));
  EXPECT_LE(set->UnfencedWriters(), 1);
  bed.sim().RunFor(Minutes(2));  // the drain finishes and the last publish propagates
  EXPECT_LE(set->UnfencedWriters(), 1);

  // Byte-identity at every version both subscribers delivered, on both sides of the kill.
  EXPECT_GT(follower.deltas, 0);
  int compared_after_kill = 0;
  for (const auto& [version, bytes] : follower.history) {
    auto it = snapshot_history.find(version);
    if (it != snapshot_history.end()) {
      EXPECT_EQ(bytes, it->second) << "divergence at version " << version;
      compared_after_kill += version > version_at_kill ? 1 : 0;
    }
  }
  EXPECT_GT(compared_after_kill, 0);
  const ShardMap* current = bed.discovery().Current(AppId(1));
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(SerializeShardMap(follower.own), SerializeShardMap(*current));
}

}  // namespace
}  // namespace shardman
