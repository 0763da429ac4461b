// Unit tests for service discovery: publication, propagation delay, FIFO delta channels.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/discovery/service_discovery.h"
#include "src/sim/simulator.h"

namespace shardman {
namespace {

ShardMap MakeMap(AppId app, int64_t version, int shards) {
  ShardMap map;
  map.app = app;
  map.version = version;
  map.entries.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    map.entries[static_cast<size_t>(s)].shard = ShardId(s);
    ShardMapReplica replica;
    replica.server = ServerId(100 + s);
    replica.role = ReplicaRole::kPrimary;
    replica.region = RegionId(0);
    map.entries[static_cast<size_t>(s)].replicas.push_back(replica);
  }
  return map;
}

TEST(ServiceDiscoveryTest, SubscriberReceivesAfterDelay) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(100), Millis(100), 1);
  int64_t seen_version = -1;
  discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    seen_version = map->version;
  });
  discovery.Publish(MakeMap(AppId(1), 1, 2));
  EXPECT_EQ(seen_version, -1);
  sim.RunFor(Millis(150));
  EXPECT_EQ(seen_version, 1);
}

TEST(ServiceDiscoveryTest, LateSubscriberGetsCurrentMap) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(10), 1);
  discovery.Publish(MakeMap(AppId(1), 5, 1));
  sim.RunFor(Millis(50));
  int64_t seen_version = -1;
  discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    seen_version = map->version;
  });
  sim.RunFor(Millis(50));
  EXPECT_EQ(seen_version, 5);
}

// Delays drawn per (subscription, version) from a range 600x wider than the publish interval
// would let later versions overtake earlier ones; each subscriber's channel is FIFO, so every
// subscriber still sees every version, in order, and after its initial read only as deltas.
TEST(ServiceDiscoveryTest, FifoChannelsDeliverEveryVersionInOrderAsDeltas) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(200), Millis(800), 7);
  struct Seen {
    std::vector<int64_t> versions;
    int snapshots = 0;
    int deltas = 0;
  };
  constexpr int kSubscribers = 8;
  constexpr int64_t kVersions = 50;
  std::vector<Seen> seen(kSubscribers);
  for (Seen& s : seen) {
    discovery.Subscribe(
        AppId(1),
        [&s](const std::shared_ptr<const ShardMap>& map) {
          s.versions.push_back(map->version);
          ++s.snapshots;
        },
        [&s](const std::shared_ptr<const ShardMapDelta>& delta) {
          s.versions.push_back(delta->to_version);
          ++s.deltas;
        });
  }
  std::vector<int64_t> snapshot_only;
  discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& map) {
    snapshot_only.push_back(map->version);
  });
  for (int64_t v = 1; v <= kVersions; ++v) {
    discovery.Publish(MakeMap(AppId(1), v, static_cast<int>(v % 4) + 1));
    sim.RunFor(Millis(1));
  }
  sim.RunFor(Seconds(2));

  std::vector<int64_t> every_version;
  for (int64_t v = 1; v <= kVersions; ++v) {
    every_version.push_back(v);
  }
  for (const Seen& s : seen) {
    EXPECT_EQ(s.versions, every_version);
    EXPECT_EQ(s.snapshots, 1);  // the initial read
    EXPECT_EQ(s.deltas, kVersions - 1);
  }
  EXPECT_EQ(snapshot_only, every_version);
  EXPECT_EQ(discovery.snapshot_fallbacks(), 0);
  EXPECT_EQ(discovery.delta_deliveries(), kSubscribers * (kVersions - 1));
}

TEST(ServiceDiscoveryTest, CurrentIsAuthoritativeImmediately) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Seconds(1), Seconds(1), 1);
  EXPECT_EQ(discovery.Current(AppId(1)), nullptr);
  discovery.Publish(MakeMap(AppId(1), 1, 3));
  ASSERT_NE(discovery.Current(AppId(1)), nullptr);
  EXPECT_EQ(discovery.Current(AppId(1))->version, 1);
  EXPECT_EQ(discovery.Current(AppId(1))->entries.size(), 3u);
}

TEST(ServiceDiscoveryTest, UnsubscribeStopsDelivery) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(10), 1);
  int deliveries = 0;
  int64_t sub =
      discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>&) { ++deliveries; });
  discovery.Publish(MakeMap(AppId(1), 1, 1));
  sim.RunFor(Millis(50));
  EXPECT_EQ(deliveries, 1);
  discovery.Unsubscribe(sub);
  discovery.Publish(MakeMap(AppId(1), 2, 1));
  sim.RunFor(Millis(50));
  EXPECT_EQ(deliveries, 1);
}

TEST(ServiceDiscoveryTest, AppsAreIsolated) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(10), 1);
  int app1_deliveries = 0;
  discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>&) { ++app1_deliveries; });
  discovery.Publish(MakeMap(AppId(2), 1, 1));
  sim.RunFor(Millis(50));
  EXPECT_EQ(app1_deliveries, 0);
}

TEST(ShardMapTest, PrimaryLookup) {
  ShardMap map = MakeMap(AppId(1), 1, 2);
  EXPECT_EQ(map.PrimaryOf(ShardId(0)), ServerId(100));
  EXPECT_EQ(map.PrimaryOf(ShardId(1)), ServerId(101));
  EXPECT_FALSE(map.PrimaryOf(ShardId(5)).valid());
  EXPECT_EQ(map.Find(ShardId(9)), nullptr);
}

}  // namespace
}  // namespace shardman
