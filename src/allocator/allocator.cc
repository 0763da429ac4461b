#include "src/allocator/allocator.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace shardman {

std::string_view ReplicaRoleName(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kPrimary:
      return "primary";
    case ReplicaRole::kSecondary:
      return "secondary";
  }
  return "unknown";
}

SmAllocator::SmAllocator(AllocatorOptions options) : options_(options) {}

SmAllocator::BuiltProblem SmAllocator::BuildProblem(const PartitionSnapshot& snapshot) const {
  BuiltProblem built;
  SolverProblem& p = built.problem;
  const int metrics = snapshot.config.metrics.size();
  SM_CHECK_GT(metrics, 0);
  p.num_metrics = metrics;

  std::unordered_map<int32_t, int32_t>& server_to_bin = built.server_to_bin;
  for (const ServerState& server : snapshot.servers) {
    std::vector<double> cap(static_cast<size_t>(metrics));
    SM_CHECK_EQ(server.capacity.dims(), metrics);
    for (int m = 0; m < metrics; ++m) {
      cap[static_cast<size_t>(m)] = server.capacity[m];
    }
    int bin = p.AddBin(std::move(cap), server.region.value, server.data_center.value,
                       server.rack.value);
    p.bin_alive[static_cast<size_t>(bin)] = server.alive ? 1 : 0;
    p.bin_draining[static_cast<size_t>(bin)] = server.draining ? 1 : 0;
    server_to_bin[server.id.value] = bin;
    built.bin_to_server.push_back(static_cast<int32_t>(built.bin_to_server.size()));
  }

  for (size_t s = 0; s < snapshot.shards.size(); ++s) {
    const ShardDescriptor& shard = snapshot.shards[s];
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      const ReplicaState& replica = shard.replicas[r];
      SM_CHECK_EQ(replica.load.dims(), metrics);
      std::vector<double> load(static_cast<size_t>(metrics));
      for (int m = 0; m < metrics; ++m) {
        load[static_cast<size_t>(m)] = replica.load[m];
      }
      int32_t bin = -1;
      if (replica.server.valid()) {
        auto it = server_to_bin.find(replica.server.value);
        if (it != server_to_bin.end()) {
          bin = it->second;
        }
      }
      p.AddEntity(std::move(load), static_cast<int32_t>(s), bin);
      built.entity_to_replica.emplace_back(static_cast<int32_t>(s), static_cast<int32_t>(r));
    }
  }
  return built;
}

Rebalancer SmAllocator::BuildSpecs(const PartitionSnapshot& snapshot) const {
  const PlacementConfig& config = snapshot.config;
  const int metrics = config.metrics.size();
  Rebalancer rebalancer;

  for (int m = 0; m < metrics; ++m) {
    rebalancer.AddConstraint(CapacitySpec{m, config.capacity_limit});
    if (config.utilization_threshold > 0.0) {
      rebalancer.AddGoal(ThresholdSpec{m, config.utilization_threshold},
                         options_.weight_threshold);
    }
    if (config.global_balance) {
      rebalancer.AddGoal(BalanceSpec{DomainScope::kGlobal, m, config.balance_tolerance},
                         options_.weight_global_balance);
    }
    if (config.regional_balance) {
      rebalancer.AddGoal(BalanceSpec{DomainScope::kRegion, m, config.balance_tolerance},
                         options_.weight_regional_balance);
    }
  }

  if (config.spread_regions) {
    rebalancer.AddGoal(ExclusionSpec{DomainScope::kRegion}, options_.weight_spread_region);
  }
  if (config.spread_data_centers) {
    rebalancer.AddGoal(ExclusionSpec{DomainScope::kDataCenter}, options_.weight_spread_dc);
  }
  if (config.spread_racks) {
    rebalancer.AddGoal(ExclusionSpec{DomainScope::kRack}, options_.weight_spread_rack);
  }

  AffinitySpec affinity;
  for (size_t s = 0; s < snapshot.shards.size(); ++s) {
    const ShardDescriptor& shard = snapshot.shards[s];
    if (shard.preferred_region.valid()) {
      AffinityEntry entry;
      entry.group = static_cast<int32_t>(s);
      entry.region = shard.preferred_region.value;
      entry.min_count = shard.min_replicas_in_preferred;
      entry.weight = shard.preference_weight;
      affinity.entries.push_back(entry);
    }
  }
  if (!affinity.entries.empty()) {
    rebalancer.AddGoal(affinity, options_.weight_region_preference);
  }

  rebalancer.AddGoal(DrainSpec{}, options_.weight_drain);
  return rebalancer;
}

SolveOptions SmAllocator::BuildSolveOptions(AllocationMode mode) const {
  SolveOptions solve;
  solve.time_budget = mode == AllocationMode::kEmergency ? options_.emergency_time_budget
                                                         : options_.periodic_time_budget;
  solve.eval_budget = mode == AllocationMode::kEmergency ? options_.emergency_eval_budget
                                                         : options_.periodic_eval_budget;
  solve.threads = options_.solver_threads;
  solve.starts = options_.solver_starts;
  solve.seed = options_.seed;
  solve.candidates_per_entity = options_.candidates_per_entity;
  solve.entities_per_bin_visit = options_.entities_per_bin_visit;
  solve.stratified_sampling = options_.stratified_sampling;
  solve.large_shards_first = options_.large_shards_first;
  solve.goal_batching = options_.goal_batching;
  solve.equivalence_classes = options_.equivalence_classes;
  solve.enable_swaps = options_.enable_swaps;
  solve.trace_interval = options_.trace_interval;
  solve.emergency = mode == AllocationMode::kEmergency;
  solve.incremental = true;
  return solve;
}

int64_t SmAllocator::SeedFromWarmCache(const PartitionSnapshot& snapshot,
                                       BuiltProblem* built) const {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  auto part = warm_cache_.find(snapshot.id.value);
  if (part == warm_cache_.end()) {
    return 0;
  }
  int64_t seeded = 0;
  SolverProblem& p = built->problem;
  for (size_t e = 0; e < built->entity_to_replica.size(); ++e) {
    if (p.assignment[e] >= 0) {
      continue;  // the snapshot already places this replica; trust it over the cache
    }
    auto [shard_idx, replica_idx] = built->entity_to_replica[e];
    const ShardDescriptor& shard = snapshot.shards[static_cast<size_t>(shard_idx)];
    int64_t key = (static_cast<int64_t>(shard.id.value) << 16) | replica_idx;
    auto cached = part->second.find(key);
    if (cached == part->second.end()) {
      continue;
    }
    auto bin_it = built->server_to_bin.find(cached->second);
    if (bin_it == built->server_to_bin.end() ||
        p.bin_alive[static_cast<size_t>(bin_it->second)] == 0) {
      continue;  // the cached server left the partition or died: leave unassigned
    }
    p.assignment[e] = bin_it->second;
    ++seeded;
  }
  return seeded;
}

void SmAllocator::UpdateWarmCache(const PartitionSnapshot& snapshot,
                                  const BuiltProblem& built) const {
  std::unordered_map<int64_t, int32_t> fresh;
  fresh.reserve(built.entity_to_replica.size());
  const SolverProblem& p = built.problem;
  for (size_t e = 0; e < built.entity_to_replica.size(); ++e) {
    int32_t bin = p.assignment[e];
    if (bin < 0) {
      continue;
    }
    auto [shard_idx, replica_idx] = built.entity_to_replica[e];
    const ShardDescriptor& shard = snapshot.shards[static_cast<size_t>(shard_idx)];
    int64_t key = (static_cast<int64_t>(shard.id.value) << 16) | replica_idx;
    fresh[key] = snapshot.servers[static_cast<size_t>(bin)].id.value;
  }
  std::lock_guard<std::mutex> lock(warm_mutex_);
  warm_cache_[snapshot.id.value] = std::move(fresh);
}

AllocationResult SmAllocator::Allocate(PartitionSnapshot& snapshot, AllocationMode mode) const {
  BuiltProblem built = BuildProblem(snapshot);
  Rebalancer rebalancer = BuildSpecs(snapshot);
  SolveOptions solve_options = BuildSolveOptions(mode);

  int64_t seeded = SeedFromWarmCache(snapshot, &built);
  int64_t live = 0;
  for (int32_t bin : built.problem.assignment) {
    if (bin >= 0 && built.problem.bin_alive[static_cast<size_t>(bin)] != 0) {
      ++live;
    }
  }
  // Entities entering the solve already placed on a live server: the warm-start capital the
  // incremental repair preserves (cache-seeded replicas are a subset).
  SM_COUNTER_ADD("sm.solver.warm_start_reuse", live);
  SM_COUNTER_ADD("sm.solver.warm_cache_seeded", seeded);

  SolveResult solved = rebalancer.Solve(built.problem, solve_options);

  AllocationResult result;
  result.before = solved.initial_violations;
  result.after = solved.final_violations;
  result.solve_wall = solved.wall_time;
  result.evaluations = solved.evaluations;
  result.converged = solved.converged;
  result.trace = std::move(solved.trace);

  // Write back net changes by comparing each entity's final bin against the snapshot's
  // placement. This covers both solver moves and warm-cache seeding (which pre-dates the move
  // log), and collapses move/move-back sequences to no-ops for free.
  for (size_t e = 0; e < built.entity_to_replica.size(); ++e) {
    int32_t bin = built.problem.assignment[e];
    if (bin < 0) {
      continue;  // still unassigned: nothing executable to report
    }
    auto [shard_idx, replica_idx] = built.entity_to_replica[e];
    ReplicaState& replica =
        snapshot.shards[static_cast<size_t>(shard_idx)].replicas[static_cast<size_t>(replica_idx)];
    ServerId to = snapshot.servers[static_cast<size_t>(bin)].id;
    if (replica.server == to) {
      continue;
    }
    AssignmentChange change;
    change.replica = replica.id;
    change.from = replica.server;
    change.to = to;
    replica.server = change.to;
    result.changes.push_back(change);
  }
  // Deterministic order for downstream consumers.
  std::sort(result.changes.begin(), result.changes.end(),
            [](const AssignmentChange& a, const AssignmentChange& b) {
              return a.replica < b.replica;
            });
  UpdateWarmCache(snapshot, built);
  return result;
}

std::vector<AllocationResult> SmAllocator::AllocateParallel(
    std::vector<PartitionSnapshot*> snapshots, AllocationMode mode, int threads) const {
  SM_CHECK_GT(threads, 0);
  std::vector<AllocationResult> results(snapshots.size());
  const auto n = static_cast<int64_t>(snapshots.size());
  ThreadPool pool(static_cast<int>(std::min<int64_t>(threads, n)));
  pool.ParallelFor(0, n, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      results[static_cast<size_t>(i)] = Allocate(*snapshots[static_cast<size_t>(i)], mode);
    }
  });
  return results;
}

ViolationCounts SmAllocator::Count(const PartitionSnapshot& snapshot) const {
  BuiltProblem built = BuildProblem(snapshot);
  Rebalancer rebalancer = BuildSpecs(snapshot);
  return rebalancer.Count(built.problem);
}

}  // namespace shardman
