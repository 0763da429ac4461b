// Unit tests for the SM allocator: snapshot translation, emergency vs. periodic modes,
// spread/affinity behaviour at the application level, and partitioned parallel solving.

#include <gtest/gtest.h>

#include <set>

#include "src/allocator/allocator.h"
#include "src/common/rng.h"

namespace shardman {
namespace {

// A snapshot with `servers_per_region` servers in each of `regions` regions and `shards` shards
// of `replicas` replicas each, all unassigned.
PartitionSnapshot MakeSnapshot(int regions, int servers_per_region, int shards, int replicas,
                               double shard_load = 1.0, double capacity = 100.0) {
  PartitionSnapshot snapshot;
  snapshot.id = PartitionId(0);
  snapshot.config.metrics = MetricSet({"cpu"});
  int32_t server_id = 0;
  for (int r = 0; r < regions; ++r) {
    for (int s = 0; s < servers_per_region; ++s) {
      ServerState server;
      server.id = ServerId(server_id);
      server.machine = MachineId(server_id);
      server.region = RegionId(r);
      server.data_center = DataCenterId(r);
      server.rack = RackId(server_id);
      server.capacity = ResourceVector{capacity};
      ++server_id;
      snapshot.servers.push_back(server);
    }
  }
  for (int sh = 0; sh < shards; ++sh) {
    ShardDescriptor shard;
    shard.id = ShardId(sh);
    for (int rep = 0; rep < replicas; ++rep) {
      ReplicaState replica;
      replica.id = ReplicaId(shard.id, rep);
      replica.role = rep == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
      replica.load = ResourceVector{shard_load};
      shard.replicas.push_back(replica);
    }
    snapshot.shards.push_back(shard);
  }
  return snapshot;
}

TEST(SmAllocatorTest, EmergencyPlacesEverythingWithinCapacity) {
  PartitionSnapshot snapshot = MakeSnapshot(2, 5, 50, 2);
  SmAllocator allocator;
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kEmergency);
  EXPECT_EQ(result.before.unassigned, 100);
  EXPECT_EQ(result.after.unassigned, 0);
  EXPECT_EQ(result.after.capacity, 0);
  EXPECT_EQ(result.changes.size(), 100u);
  for (const ShardDescriptor& shard : snapshot.shards) {
    for (const ReplicaState& replica : shard.replicas) {
      EXPECT_TRUE(replica.server.valid());
    }
  }
}

TEST(SmAllocatorTest, PeriodicSpreadsReplicasAcrossRegions) {
  PartitionSnapshot snapshot = MakeSnapshot(3, 6, 30, 3, /*shard_load=*/0.5);
  SmAllocator allocator;
  allocator.Allocate(snapshot, AllocationMode::kEmergency);
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kPeriodic);
  EXPECT_EQ(result.after.exclusion, 0) << "replicas should spread across 3 regions";
  for (const ShardDescriptor& shard : snapshot.shards) {
    std::set<int32_t> regions;
    for (const ReplicaState& replica : shard.replicas) {
      ASSERT_TRUE(replica.server.valid());
      regions.insert(snapshot.servers[static_cast<size_t>(replica.server.value)].region.value);
    }
    EXPECT_EQ(regions.size(), 3u);
  }
}

TEST(SmAllocatorTest, RegionPreferencePlacesReplicaInPreferredRegion) {
  PartitionSnapshot snapshot = MakeSnapshot(3, 4, 20, 2, 0.5);
  for (ShardDescriptor& shard : snapshot.shards) {
    shard.preferred_region = RegionId(1);
    shard.min_replicas_in_preferred = 1;
  }
  SmAllocator allocator;
  allocator.Allocate(snapshot, AllocationMode::kEmergency);
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kPeriodic);
  EXPECT_EQ(result.after.affinity, 0);
  for (const ShardDescriptor& shard : snapshot.shards) {
    bool in_preferred = false;
    for (const ReplicaState& replica : shard.replicas) {
      if (snapshot.servers[static_cast<size_t>(replica.server.value)].region == RegionId(1)) {
        in_preferred = true;
      }
    }
    EXPECT_TRUE(in_preferred);
  }
}

TEST(SmAllocatorTest, DrainingServerIsEvacuated) {
  PartitionSnapshot snapshot = MakeSnapshot(1, 4, 12, 1, 1.0);
  SmAllocator allocator;
  allocator.Allocate(snapshot, AllocationMode::kEmergency);
  snapshot.servers[0].draining = true;
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kPeriodic);
  EXPECT_EQ(result.after.drain, 0);
  for (const ShardDescriptor& shard : snapshot.shards) {
    for (const ReplicaState& replica : shard.replicas) {
      EXPECT_NE(replica.server, ServerId(0));
    }
  }
}

TEST(SmAllocatorTest, DeadServerReplicasReassigned) {
  PartitionSnapshot snapshot = MakeSnapshot(1, 4, 12, 1, 1.0);
  SmAllocator allocator;
  allocator.Allocate(snapshot, AllocationMode::kEmergency);
  snapshot.servers[1].alive = false;
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kEmergency);
  EXPECT_EQ(result.after.unassigned, 0);
  for (const ShardDescriptor& shard : snapshot.shards) {
    for (const ReplicaState& replica : shard.replicas) {
      EXPECT_NE(replica.server, ServerId(1));
    }
  }
}

TEST(SmAllocatorTest, ChangesReportExactDiff) {
  PartitionSnapshot snapshot = MakeSnapshot(1, 3, 6, 1);
  SmAllocator allocator;
  AllocationResult first = allocator.Allocate(snapshot, AllocationMode::kEmergency);
  EXPECT_EQ(first.changes.size(), 6u);
  AllocationResult second = allocator.Allocate(snapshot, AllocationMode::kPeriodic);
  for (const AssignmentChange& change : second.changes) {
    EXPECT_NE(change.from, change.to);
  }
}

TEST(SmAllocatorTest, ParallelPartitionsSolveIndependently) {
  std::vector<PartitionSnapshot> snapshots;
  for (int p = 0; p < 4; ++p) {
    snapshots.push_back(MakeSnapshot(2, 4, 20, 2, 0.5));
    snapshots.back().id = PartitionId(p);
  }
  std::vector<PartitionSnapshot*> pointers;
  for (auto& snapshot : snapshots) {
    pointers.push_back(&snapshot);
  }
  SmAllocator allocator;
  std::vector<AllocationResult> results =
      allocator.AllocateParallel(pointers, AllocationMode::kEmergency, 4);
  ASSERT_EQ(results.size(), 4u);
  for (const AllocationResult& result : results) {
    EXPECT_EQ(result.after.unassigned, 0);
  }
}

// Each partition keeps its problem and warm cache between solves. Two parallel rounds over
// four partitions (the second warm-started from the first) give exactly what one allocator
// solving the partitions one by one gives, so no partition's kept state leaks into another's.
TEST(SmAllocatorTest, ParallelRoundsMatchSequentialRounds) {
  auto make = [] {
    std::vector<PartitionSnapshot> snapshots;
    for (int p = 0; p < 4; ++p) {
      snapshots.push_back(MakeSnapshot(2, 3 + p, 20 + 5 * p, 2, 0.5 + 0.25 * p));
      snapshots.back().id = PartitionId(p);
    }
    return snapshots;
  };
  std::vector<PartitionSnapshot> parallel = make();
  std::vector<PartitionSnapshot> sequential = make();
  std::vector<PartitionSnapshot*> pointers;
  for (auto& snapshot : parallel) {
    pointers.push_back(&snapshot);
  }
  SmAllocator parallel_allocator;
  SmAllocator sequential_allocator;
  for (AllocationMode mode : {AllocationMode::kEmergency, AllocationMode::kPeriodic}) {
    std::vector<AllocationResult> results = parallel_allocator.AllocateParallel(pointers, mode, 4);
    ASSERT_EQ(results.size(), sequential.size());
    for (size_t p = 0; p < sequential.size(); ++p) {
      AllocationResult expected = sequential_allocator.Allocate(sequential[p], mode);
      ASSERT_EQ(results[p].changes.size(), expected.changes.size()) << "partition " << p;
      for (size_t c = 0; c < expected.changes.size(); ++c) {
        EXPECT_EQ(results[p].changes[c].replica, expected.changes[c].replica);
        EXPECT_EQ(results[p].changes[c].to, expected.changes[c].to);
      }
    }
    // Before the second round: one server per partition dies, and every third shard's
    // replicas lose their binding, which the warm cache restores where their server lives.
    for (size_t p = 0; p < sequential.size(); ++p) {
      for (std::vector<PartitionSnapshot>* side : {&parallel, &sequential}) {
        PartitionSnapshot& snapshot = (*side)[p];
        snapshot.servers[p].alive = false;
        for (size_t s = 0; s < snapshot.shards.size(); s += 3) {
          for (ReplicaState& replica : snapshot.shards[s].replicas) {
            replica.server = ServerId();
          }
        }
      }
    }
  }
}

TEST(SmAllocatorTest, MultiMetricBalancing) {
  PartitionSnapshot snapshot = MakeSnapshot(1, 6, 0, 0);
  snapshot.config.metrics = MetricSet({"cpu", "storage", "shard_count"});
  for (ServerState& server : snapshot.servers) {
    server.capacity = ResourceVector{100.0, 100.0, 50.0};
  }
  Rng rng(5);
  for (int sh = 0; sh < 60; ++sh) {
    ShardDescriptor shard;
    shard.id = ShardId(sh);
    ReplicaState replica;
    replica.id = ReplicaId(shard.id, 0);
    replica.role = ReplicaRole::kPrimary;
    replica.load = ResourceVector{rng.Uniform(1.0, 6.0), rng.Uniform(1.0, 6.0), 1.0};
    shard.replicas.push_back(replica);
    snapshot.shards.push_back(shard);
  }
  SmAllocator allocator;
  allocator.Allocate(snapshot, AllocationMode::kEmergency);
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kPeriodic);
  EXPECT_EQ(result.after.capacity, 0);
  EXPECT_EQ(result.after.threshold, 0);
  EXPECT_EQ(result.after.balance, 0);
}

TEST(SmAllocatorTest, CountMatchesAllocateBefore) {
  PartitionSnapshot snapshot = MakeSnapshot(2, 3, 10, 2);
  SmAllocator allocator;
  ViolationCounts counted = allocator.Count(snapshot);
  AllocationResult result = allocator.Allocate(snapshot, AllocationMode::kEmergency);
  EXPECT_EQ(counted.total(), result.before.total());
}

}  // namespace
}  // namespace shardman
