// Unit tests for core components that don't need the full stack: app specs / key mapping,
// SM-library assignment serialization, the scale-out control-plane registries, and the
// server registry.

#include <gtest/gtest.h>

#include "src/core/app_spec.h"
#include "src/core/control_plane.h"
#include "src/core/server_registry.h"
#include "src/core/sm_library.h"
#include "src/smr/lease.h"

namespace shardman {
namespace {

TEST(AppSpecTest, UniformKeySpaceCoversEverything) {
  AppSpec spec = MakeUniformAppSpec(AppId(1), "kv", 16, ReplicationStrategy::kPrimaryOnly, 1);
  EXPECT_EQ(spec.num_shards(), 16);
  EXPECT_EQ(spec.ShardForKey(0), ShardId(0));
  EXPECT_EQ(spec.ShardForKey(~0ULL - 1), ShardId(15));
  // Every boundary key maps to exactly one shard.
  for (int s = 0; s < 16; ++s) {
    const KeyRange& range = spec.shard_ranges[static_cast<size_t>(s)];
    EXPECT_EQ(spec.ShardForKey(range.begin), ShardId(s));
    if (range.end != ~0ULL) {
      EXPECT_EQ(spec.ShardForKey(range.end), ShardId(s + 1));
    }
  }
}

TEST(AppSpecTest, UnevenCustomRanges) {
  // The paper's example: S0:[1,9], S1:[10,99], S2:[100,100000] (§3.1) — app-defined uneven
  // shards are first-class.
  AppSpec spec;
  spec.id = AppId(2);
  spec.shard_ranges = {{1, 10}, {10, 100}, {100, 100001}};
  EXPECT_EQ(spec.ShardForKey(5), ShardId(0));
  EXPECT_EQ(spec.ShardForKey(10), ShardId(1));
  EXPECT_EQ(spec.ShardForKey(99), ShardId(1));
  EXPECT_EQ(spec.ShardForKey(100000), ShardId(2));
  EXPECT_FALSE(spec.ShardForKey(0).valid());       // below all ranges
  EXPECT_FALSE(spec.ShardForKey(200000).valid());  // above all ranges
}

TEST(SmLibraryTest, AssignmentRoundTrips) {
  std::vector<PersistedReplica> replicas = {
      {ShardId(3), 0, ReplicaRole::kPrimary},
      {ShardId(7), 1, ReplicaRole::kSecondary},
      {ShardId(4096), 2, ReplicaRole::kSecondary},
  };
  std::string data = SerializeAssignment(replicas);
  // Golden bytes: servers restore from records an older build wrote, so the format is fixed.
  EXPECT_EQ(data, "3:0:p;7:1:s;4096:2:s;");
  std::vector<PersistedReplica> parsed = ParseAssignment(data);
  ASSERT_EQ(parsed.size(), 3u);
  for (size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(parsed[i].shard, replicas[i].shard);
    EXPECT_EQ(parsed[i].replica, replicas[i].replica);
    EXPECT_EQ(parsed[i].role, replicas[i].role);
  }
  EXPECT_EQ(SerializeAssignment({}), "");
  EXPECT_TRUE(ParseAssignment("").empty());
  EXPECT_TRUE(ParseAssignment("garbage").empty());

  // A malformed entry between good ones is skipped; its neighbours and the rest survive. So is
  // an unterminated tail.
  for (const char* bad :
       {"x:0:p", "3:y:p", "3:0:q", "3:0", "", "3:0:p:extra", "99999999999:0:p"}) {
    SCOPED_TRACE(bad);
    parsed = ParseAssignment(std::string("3:0:p;") + bad + ";7:1:s;8:0:p");
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].shard, ShardId(3));
    EXPECT_EQ(parsed[0].role, ReplicaRole::kPrimary);
    EXPECT_EQ(parsed[1].shard, ShardId(7));
    EXPECT_EQ(parsed[1].replica, 1);
    EXPECT_EQ(parsed[1].role, ReplicaRole::kSecondary);
  }

  // The lease record "<holder>:<epoch>" shares the codec: the epoch follows the last colon,
  // and a record without one (or without digits after it) reads as epoch 0.
  CoordStore coord;
  const std::string leader = "/sm/app/smr/leader";
  EXPECT_EQ(LeaderLease::CurrentEpoch(&coord, "app"), 0);
  ASSERT_TRUE(coord.Set(leader, "replica-0").ok());
  EXPECT_EQ(LeaderLease::CurrentEpoch(&coord, "app"), 0);
  EXPECT_EQ(LeaderLease::CurrentHolder(&coord, "app"), "");
  ASSERT_TRUE(coord.Set(leader, "replica-0:").ok());
  EXPECT_EQ(LeaderLease::CurrentEpoch(&coord, "app"), 0);
  ASSERT_TRUE(coord.Set(leader, "host:7:12").ok());
  EXPECT_EQ(LeaderLease::CurrentEpoch(&coord, "app"), 12);
  EXPECT_EQ(LeaderLease::CurrentHolder(&coord, "app"), "host:7");
}

TEST(PartitionRegistryTest, PacksLeastLoadedAndRespectsCaps) {
  PartitionRegistry registry(/*max_servers=*/1000, /*max_replicas=*/100000);
  PartitionInfo p1;
  p1.id = PartitionId(0);
  p1.servers = 600;
  p1.shard_replicas = 1000;
  MiniSmId m1 = registry.AssignPartition(p1);
  PartitionInfo p2;
  p2.id = PartitionId(1);
  p2.servers = 600;
  p2.shard_replicas = 1000;
  MiniSmId m2 = registry.AssignPartition(p2);
  EXPECT_NE(m1, m2) << "600+600 exceeds the per-mini-SM cap; a second mini-SM is needed";
  PartitionInfo p3;
  p3.id = PartitionId(2);
  p3.servers = 300;
  p3.shard_replicas = 1000;
  MiniSmId m3 = registry.AssignPartition(p3);
  EXPECT_TRUE(m3 == m1 || m3 == m2) << "300 fits an existing mini-SM";
  EXPECT_EQ(registry.total_servers(), 1500);
}

TEST(PartitionRegistryTest, GeoAndRegionalMiniSmsAreSeparate) {
  PartitionRegistry registry(1000, 100000);
  PartitionInfo regional;
  regional.id = PartitionId(0);
  regional.servers = 10;
  regional.geo_distributed = false;
  PartitionInfo geo;
  geo.id = PartitionId(1);
  geo.servers = 10;
  geo.geo_distributed = true;
  MiniSmId m1 = registry.AssignPartition(regional);
  MiniSmId m2 = registry.AssignPartition(geo);
  EXPECT_NE(m1, m2);
  EXPECT_FALSE(registry.mini_sms()[static_cast<size_t>(m1.value)].geo_distributed);
  EXPECT_TRUE(registry.mini_sms()[static_cast<size_t>(m2.value)].geo_distributed);
}

TEST(ApplicationRegistryTest, LargeAppsSplitIntoPartitions) {
  PartitionRegistry partitions(60000, 2000000);
  ApplicationRegistry apps(&partitions, /*max_servers_per_partition=*/4000,
                           /*max_replicas_per_partition=*/400000);
  // 19K servers / 2.6M replicas (the paper's largest deployment) => ceil(2.6M/400K) = 7 parts.
  std::vector<PartitionInfo> result = apps.RegisterApp(AppId(1), 19000, 2600000, true);
  EXPECT_EQ(result.size(), 7u);
  int64_t servers = 0, replicas = 0;
  for (const PartitionInfo& partition : result) {
    servers += partition.servers;
    replicas += partition.shard_replicas;
    EXPECT_LE(partition.servers, 4000);
    EXPECT_LE(partition.shard_replicas, 400000);
    EXPECT_TRUE(partition.geo_distributed);
  }
  EXPECT_EQ(servers, 19000);
  EXPECT_EQ(replicas, 2600000);
}

TEST(ApplicationRegistryTest, SmallAppIsOnePartition) {
  PartitionRegistry partitions(60000, 2000000);
  ApplicationRegistry apps(&partitions);
  Frontend frontend(&apps);
  std::vector<PartitionInfo> result = frontend.RegisterApp(AppId(2), 20, 500, false);
  EXPECT_EQ(result.size(), 1u);
}

TEST(ReadServiceTest, QueriesMiniSmScales) {
  PartitionRegistry partitions(50000, 1300000);
  ApplicationRegistry apps(&partitions);
  apps.RegisterApp(AppId(1), 20000, 100000, false);
  apps.RegisterApp(AppId(2), 100, 5000, true);
  ReadService reads(&partitions);
  EXPECT_GE(reads.MiniSmsWithAtLeast(1).size(), 2u);
  EXPECT_EQ(reads.MiniSmScales(true).size(), 1u);
  EXPECT_EQ(reads.MiniSmScales(true)[0].first, 100);
}

TEST(ServerRegistryTest, RegisterLookupAlive) {
  ServerRegistry registry;
  ServerHandle handle;
  handle.id = ServerId(7);
  handle.container = ContainerId(70);
  handle.app = AppId(1);
  handle.region = RegionId(0);
  registry.Register(handle);
  ASSERT_NE(registry.Get(ServerId(7)), nullptr);
  ASSERT_NE(registry.GetByContainer(ContainerId(70)), nullptr);
  EXPECT_EQ(registry.GetByContainer(ContainerId(70))->id, ServerId(7));
  EXPECT_TRUE(registry.IsAlive(ServerId(7)));
  registry.SetAlive(ServerId(7), false);
  EXPECT_FALSE(registry.IsAlive(ServerId(7)));
  EXPECT_EQ(registry.Get(ServerId(8)), nullptr);
  EXPECT_EQ(registry.ServersOf(AppId(1)).size(), 1u);
  EXPECT_EQ(registry.ServersOf(AppId(2)).size(), 0u);
}

}  // namespace
}  // namespace shardman
