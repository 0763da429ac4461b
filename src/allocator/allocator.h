// SmAllocator: Shard Manager's placement & load-balancing engine (§5).
//
// Translates a PartitionSnapshot into a Rebalancer problem, solves it with local search, and
// returns the replica moves. Every solve is a warm-started incremental repair (DESIGN.md §14):
// unassigned replicas are re-seeded from the previous round's placement of the partition when
// their last server is still alive, and periodic solves restrict refresh scans to the dirty
// neighborhoods, falling back to a full scan when most of the partition is dirty. Two modes
// (§5.1):
//   * kEmergency — triggered on shard unavailability; places unassigned replicas as fast as
//     possible subject to hard constraints, possibly deteriorating soft goals;
//   * kPeriodic — the regular optimization pass over all shards, which must not leave soft goals
//     worse than it found them.
// Large applications are split into partitions solved independently, in parallel across threads
// (§5.3 technique 1 / §6.1).

#ifndef SRC_ALLOCATOR_ALLOCATOR_H_
#define SRC_ALLOCATOR_ALLOCATOR_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/allocator/types.h"
#include "src/common/flat_id_map.h"
#include "src/solver/rebalancer.h"

namespace shardman {

enum class AllocationMode {
  kEmergency,
  kPeriodic,
};

struct AllocatorOptions {
  // Wall-clock safety cap per partition solve (see SolveOptions::time_budget: the deterministic
  // eval budgets below are the primary limit; the wall cap guards oversubscribed machines).
  TimeMicros periodic_time_budget = Seconds(60);
  TimeMicros emergency_time_budget = Seconds(5);
  // Deterministic candidate-evaluation budgets per solve mode; <=0 means run to convergence
  // (or the wall cap). Sized so a solve result never depends on machine load.
  int64_t periodic_eval_budget = 0;
  int64_t emergency_eval_budget = 0;
  uint64_t seed = 1;

  // Parallel portfolio configuration (see SolveOptions::{threads, starts}): results depend on
  // `solver_starts` but never on `solver_threads`.
  int solver_threads = 1;
  int solver_starts = 1;

  // Passed through to the solver; see SolveOptions. Exposed so the Fig. 22 ablation and the
  // scalability benches can control the search configuration.
  int candidates_per_entity = 12;
  int entities_per_bin_visit = 8;
  bool stratified_sampling = true;
  bool large_shards_first = true;
  bool goal_batching = true;
  bool equivalence_classes = true;
  bool enable_swaps = true;
  TimeMicros trace_interval = Millis(200);

  // Soft-goal weight tiers realizing the §5.1 priority order (1 = highest priority).
  double weight_region_preference = 1.0e5;  // priority 1
  double weight_spread_region = 3.0e4;      // priority 2 (region level)
  double weight_spread_dc = 1.5e4;          //   "        (data-center level)
  double weight_spread_rack = 8.0e3;        //   "        (rack level)
  double weight_drain = 4.0e3;              // priority 3
  double weight_threshold = 2.0e3;          // priority 4
  double weight_global_balance = 1.0e3;     // priority 5
  double weight_regional_balance = 5.0e2;   // priority 6
};

struct AllocationResult {
  std::vector<AssignmentChange> changes;
  ViolationCounts before;
  ViolationCounts after;
  TimeMicros solve_wall = 0;
  int64_t evaluations = 0;
  bool converged = false;
  std::vector<TracePoint> trace;
};

class SmAllocator {
 public:
  explicit SmAllocator(AllocatorOptions options = {});

  // Builds the Rebalancer spec set for a config (exposed for tests and benches).
  Rebalancer BuildSpecs(const PartitionSnapshot& snapshot) const;

  // Solves one partition. Updates the snapshot's replica->server assignments in place and
  // returns the changes plus before/after violation counts. Calls for distinct partition ids
  // may run concurrently; two at once for the same id SM_CHECK-fail.
  AllocationResult Allocate(PartitionSnapshot& snapshot, AllocationMode mode) const;

  // Solves several partitions concurrently on a ThreadPool of up to `threads` threads, one
  // partition per task (§5.3 technique 1). The snapshots' partition ids must be distinct.
  std::vector<AllocationResult> AllocateParallel(std::vector<PartitionSnapshot*> snapshots,
                                                 AllocationMode mode, int threads) const;

  // Counts current violations without solving (monitoring path, Fig. 23).
  ViolationCounts Count(const PartitionSnapshot& snapshot) const;

  const AllocatorOptions& options() const { return options_; }
  void set_options(const AllocatorOptions& options) { options_ = options; }

 private:
  struct BuiltProblem {
    SolverProblem problem;
    // entity index -> (shard vector index, replica vector index)
    std::vector<std::pair<int32_t, int32_t>> entity_to_replica;
    // server id value -> bin index
    FlatIdMap server_to_bin;
    std::vector<double> metric_scratch;  // one bin's capacity or one entity's load
  };

  // What a partition keeps between solves. Everything is rebuilt every round; the vectors
  // keep their storage, so a round on an unchanged partition allocates little.
  struct PartitionState {
    BuiltProblem built;
    // Warm-start cache: (shard id << 16) | replica index -> server id value of every placed
    // replica after the last solve.
    FlatIdMap warm;
    bool busy = false;  // a solve of this partition is running; guarded by partitions_mutex_
  };

  // One partition's solve before its metrics are recorded (see Rebalancer::SolveUnrecorded).
  struct Unrecorded {
    AllocationResult result;
    SolveResult solve;
    int64_t live = 0;    // entities entering the solve already on a live server
    int64_t seeded = 0;  // of those, placed from the warm cache
  };
  Unrecorded AllocateUnrecorded(PartitionSnapshot& snapshot, AllocationMode mode) const;
  static void Record(const Unrecorded& solved);

  // Refills `built` from the snapshot.
  void BuildProblem(const PartitionSnapshot& snapshot, BuiltProblem* built) const;
  SolveOptions BuildSolveOptions(AllocationMode mode) const;

  // Hands out partition `id`'s state for one solve, creating it on first use.
  PartitionState& Acquire(PartitionId id) const;
  void Release(PartitionState& state) const;

  // Seeds unassigned replicas from the warm cache (previous round's placement) when the cached
  // server is still alive. Returns the number of entities seeded.
  static int64_t SeedFromWarmCache(const PartitionSnapshot& snapshot, PartitionState* state);
  static void UpdateWarmCache(const PartitionSnapshot& snapshot, PartitionState* state);

  AllocatorOptions options_;

  // Per-partition state, by partition id. The mutex guards the map and the busy flags: while
  // a partition is busy its state belongs to the one solve that acquired it, and
  // unordered_map nodes stay put while other partitions are added, so that solve reads and
  // writes it unlocked. Allocate() is const and AllocateParallel() calls it from several
  // threads, hence mutable.
  mutable std::mutex partitions_mutex_;
  mutable std::unordered_map<int32_t, PartitionState> partitions_;
};

}  // namespace shardman

#endif  // SRC_ALLOCATOR_ALLOCATOR_H_
