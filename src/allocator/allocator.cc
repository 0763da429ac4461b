#include "src/allocator/allocator.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"

namespace shardman {

SmAllocator::SmAllocator(AllocatorOptions options) : options_(options) {}

void SmAllocator::BuildProblem(const PartitionSnapshot& snapshot, BuiltProblem* built) const {
  SolverProblem& p = built->problem;
  p.Clear();
  built->entity_to_replica.clear();
  built->server_to_bin.Reset(snapshot.servers.size());
  const int metrics = snapshot.config.metrics.size();
  SM_CHECK_GT(metrics, 0);
  p.num_metrics = metrics;

  std::vector<double>& values = built->metric_scratch;
  values.resize(static_cast<size_t>(metrics));
  for (const ServerState& server : snapshot.servers) {
    SM_CHECK_EQ(server.capacity.dims(), metrics);
    for (int m = 0; m < metrics; ++m) {
      values[static_cast<size_t>(m)] = server.capacity[m];
    }
    int bin = p.AddBin(values, server.region.value, server.data_center.value, server.rack.value);
    p.bin_alive[static_cast<size_t>(bin)] = server.alive ? 1 : 0;
    p.bin_draining[static_cast<size_t>(bin)] = server.draining ? 1 : 0;
    built->server_to_bin.Assign(server.id.value, bin);  // of equal ids the last listed wins
  }

  for (size_t s = 0; s < snapshot.shards.size(); ++s) {
    const ShardDescriptor& shard = snapshot.shards[s];
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      const ReplicaState& replica = shard.replicas[r];
      SM_CHECK_EQ(replica.load.dims(), metrics);
      for (int m = 0; m < metrics; ++m) {
        values[static_cast<size_t>(m)] = replica.load[m];
      }
      const int32_t bin =
          replica.server.valid() ? built->server_to_bin.Find(replica.server.value) : -1;
      p.AddEntity(values, static_cast<int32_t>(s), bin);
      built->entity_to_replica.emplace_back(static_cast<int32_t>(s), static_cast<int32_t>(r));
    }
  }
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

SmAllocator::PartitionState& SmAllocator::Acquire(PartitionId id) const {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  PartitionState& state = partitions_[id.value];
  SM_CHECK(!state.busy);  // one solve per partition at a time
  state.busy = true;
  return state;
}

void SmAllocator::Release(PartitionState& state) const {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  state.busy = false;
}

int64_t SmAllocator::SeedFromWarmCache(const PartitionSnapshot& snapshot,
                                       PartitionState* state) {
  BuiltProblem& built = state->built;
  SolverProblem& p = built.problem;
  int64_t seeded = 0;
  for (size_t e = 0; e < built.entity_to_replica.size(); ++e) {
    if (p.assignment[e] >= 0) {
      continue;  // the snapshot already places this replica; trust it over the cache
    }
    auto [shard_idx, replica_idx] = built.entity_to_replica[e];
    const ShardDescriptor& shard = snapshot.shards[static_cast<size_t>(shard_idx)];
    const int32_t cached =
        state->warm.Find((static_cast<int64_t>(shard.id.value) << 16) | replica_idx);
    if (cached < 0) {
      continue;
    }
    const int32_t bin = built.server_to_bin.Find(cached);
    if (bin < 0 || p.bin_alive[static_cast<size_t>(bin)] == 0) {
      continue;  // the cached server left the partition or died: leave unassigned
    }
    p.assignment[e] = bin;
    ++seeded;
  }
  return seeded;
}

void SmAllocator::UpdateWarmCache(const PartitionSnapshot& snapshot, PartitionState* state) {
  const BuiltProblem& built = state->built;
  const SolverProblem& p = built.problem;
  state->warm.Reset(built.entity_to_replica.size());
  for (size_t e = 0; e < built.entity_to_replica.size(); ++e) {
    int32_t bin = p.assignment[e];
    if (bin < 0) {
      continue;
    }
    auto [shard_idx, replica_idx] = built.entity_to_replica[e];
    const ShardDescriptor& shard = snapshot.shards[static_cast<size_t>(shard_idx)];
    int64_t key = (static_cast<int64_t>(shard.id.value) << 16) | replica_idx;
    state->warm.Assign(key, snapshot.servers[static_cast<size_t>(bin)].id.value);
  }
}

AllocationResult SmAllocator::Allocate(PartitionSnapshot& snapshot, AllocationMode mode) const {
  Unrecorded solved = AllocateUnrecorded(snapshot, mode);
  Record(solved);
  return std::move(solved.result);
}

void SmAllocator::Record(const Unrecorded& solved) {
  // Entities entering the solve already placed on a live server: the warm-start capital the
  // incremental repair preserves (cache-seeded replicas are a subset).
  SM_COUNTER_ADD("sm.solver.warm_start_reuse", solved.live);
  SM_COUNTER_ADD("sm.solver.warm_cache_seeded", solved.seeded);
  Rebalancer::RecordSolve(solved.solve);
}

SmAllocator::Unrecorded SmAllocator::AllocateUnrecorded(PartitionSnapshot& snapshot,
                                                        AllocationMode mode) const {
  Unrecorded solved;
  PartitionState& state = Acquire(snapshot.id);
  BuiltProblem& built = state.built;
  BuildProblem(snapshot, &built);
  Rebalancer rebalancer = BuildSpecs(snapshot);
  SolveOptions solve_options = BuildSolveOptions(mode);

  solved.seeded = SeedFromWarmCache(snapshot, &state);
  for (int32_t bin : built.problem.assignment) {
    if (bin >= 0 && built.problem.bin_alive[static_cast<size_t>(bin)] != 0) {
      ++solved.live;
    }
  }

  solved.solve = rebalancer.SolveUnrecorded(built.problem, solve_options);

  AllocationResult& result = solved.result;
  result.before = solved.solve.initial_violations;
  result.after = solved.solve.final_violations;
  result.solve_wall = solved.solve.wall_time;
  result.evaluations = solved.solve.evaluations;
  result.converged = solved.solve.converged;
  result.trace = std::move(solved.solve.trace);

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
  UpdateWarmCache(snapshot, &state);
  Release(state);
  return solved;
}

std::vector<AllocationResult> SmAllocator::AllocateParallel(
    std::vector<PartitionSnapshot*> snapshots, AllocationMode mode, int threads) const {
  SM_CHECK_GT(threads, 0);
  std::vector<Unrecorded> solved(snapshots.size());
  const auto n = static_cast<int64_t>(snapshots.size());
  ThreadPool pool(static_cast<int>(std::min<int64_t>(threads, n)));
  pool.ParallelFor(0, n, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      solved[static_cast<size_t>(i)] =
          AllocateUnrecorded(*snapshots[static_cast<size_t>(i)], mode);
    }
  });
  // Metrics from this thread only, in partition order.
  std::vector<AllocationResult> results;
  results.reserve(solved.size());
  for (Unrecorded& partition : solved) {
    Record(partition);
    results.push_back(std::move(partition.result));
  }
  return results;
}

ViolationCounts SmAllocator::Count(const PartitionSnapshot& snapshot) const {
  BuiltProblem built;
  BuildProblem(snapshot, &built);
  Rebalancer rebalancer = BuildSpecs(snapshot);
  return rebalancer.Count(built.problem);
}

}  // namespace shardman
