// Application-level placement types consumed by the SM allocator: server states, shard/replica
// states, and the per-application placement configuration that encodes the hard constraints and
// prioritized soft goals of §5.1.

#ifndef SRC_ALLOCATOR_TYPES_H_
#define SRC_ALLOCATOR_TYPES_H_

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/resource.h"
#include "src/common/sim_time.h"

namespace shardman {

enum class ReplicaRole {
  kPrimary,
  kSecondary,
};

// §2.2.3 replication strategies.
enum class ReplicationStrategy {
  kPrimaryOnly,      // one replica per shard, always primary
  kSecondaryOnly,    // N equal replicas
  kPrimarySecondary, // one elected primary + N-1 secondaries
};

struct ServerState {
  ServerId id;
  MachineId machine;
  RegionId region;
  DataCenterId data_center;
  RackId rack;
  ResourceVector capacity;
  bool alive = true;
  // The server has a pending planned event (upgrade/maintenance); the allocator prefers moving
  // shards off it (§5.1 soft goal 3).
  bool draining = false;
};

struct ReplicaState {
  ReplicaId id;
  ReplicaRole role = ReplicaRole::kSecondary;
  ServerId server;  // invalid id = unassigned
  ResourceVector load;
};

struct ShardDescriptor {
  ShardId id;
  std::vector<ReplicaState> replicas;
  // Regional placement preference (§5.1 soft goal 1); invalid region = no preference.
  RegionId preferred_region;
  double preference_weight = 1.0;
  int min_replicas_in_preferred = 1;
};

// Per-application placement configuration, translated by the allocator into solver specs whose
// weights realize the §5.1 priority order.
struct PlacementConfig {
  MetricSet metrics;

  // Hard constraint: per-server load must stay under capacity * capacity_limit.
  double capacity_limit = 1.0;

  // Soft goal 4: utilization threshold (e.g. 0.9 = 90%).
  double utilization_threshold = 0.9;

  // Soft goals 5/6: utilization within tolerance of the (global/regional) average.
  bool global_balance = true;
  bool regional_balance = true;
  double balance_tolerance = 0.10;

  // Soft goal 2: spread each shard's replicas across these fault-domain levels.
  bool spread_regions = true;
  bool spread_data_centers = true;
  bool spread_racks = true;

  // System-stability caps (§5.1 hard constraint 1), enforced when the orchestrator paces the
  // execution of an allocation diff.
  int max_concurrent_moves_per_app = 64;
  int max_concurrent_moves_per_shard = 1;
};

// One allocator partition (§6.1): a self-contained set of servers and shards solved together.
// The replicas of a shard always stay within one partition.
struct PartitionSnapshot {
  PartitionId id;
  PlacementConfig config;
  std::vector<ServerState> servers;
  std::vector<ShardDescriptor> shards;
};

// One replica reassignment produced by the allocator.
struct AssignmentChange {
  ReplicaId replica;
  ServerId from;  // invalid = was unassigned
  ServerId to;
};

}  // namespace shardman

#endif  // SRC_ALLOCATOR_TYPES_H_
