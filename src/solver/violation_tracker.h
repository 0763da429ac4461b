// ViolationTracker: incremental objective accounting for the local-search backend.
//
// Maintains per-bin load sums, per-group domain occupancy and per-scope utilization averages so
// that the objective change of a candidate move is computed in O(metrics + replicas-per-shard)
// instead of re-evaluating the whole problem. This is the "only traverses tree nodes whose
// values may change" idea of §5.3, realized over flat arrays.
//
// The continuous objective (weighted excess amounts) drives the search; the discrete
// ViolationCounts (what Fig. 21/22 plot) are produced by exact full scans in Count().

#ifndef SRC_SOLVER_VIOLATION_TRACKER_H_
#define SRC_SOLVER_VIOLATION_TRACKER_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/solver/problem.h"
#include "src/solver/rebalancer.h"

namespace shardman {

// Bitmask of goal families, used to scope hot-bin detection to the current goal batch.
enum GoalMask : uint32_t {
  kGoalHard = 1u << 0,   // capacity overflows (+ unassigned entities, tracked separately)
  kGoalDrain = 1u << 1,
  kGoalGroup = 1u << 2,  // affinity + exclusion
  kGoalLoad = 1u << 3,   // threshold + balance
  kGoalAll = 0xFu,
};

class ViolationTracker {
 public:
  // Weights that make hard constraints dominate every soft goal.
  static constexpr double kCapacityWeight = 1e8;
  static constexpr double kUnassignedWeight = 1e10;

  ViolationTracker(SolverProblem* problem, const Rebalancer* specs);

  // Builds all sums from the problem's current assignment. Must be called before use.
  void Init();

  // Objective change if `entity` moved to live bin `to` (>= 0). Does not mutate state.
  double MoveDelta(int entity, int to) const;

  // Applies the move: updates the problem's assignment and all incremental state.
  void ApplyMove(int entity, int to);

  // Current (incrementally maintained) objective. Subject to small drift across cross-domain
  // moves between average refreshes; RecomputeAll() restores exactness.
  double objective() const { return objective_; }

  // Recomputes scope-average utilizations and the exact objective. Called at refresh points.
  void RecomputeAll();

  // Recomputes only the per-scope average utilizations (O(bins) per balance spec) without the
  // O(entities + groups) exact-objective pass. The incremental-repair refresh path uses this:
  // averages must track applied moves for MoveDelta to price balance goals correctly, but the
  // exact objective is only needed once, at the end of the solve.
  void RecomputeScopeAverages();

  // Schedules an exact-objective recompute every `every_moves` applied moves (<=0 disables),
  // bounding incremental FP drift the way annealing's ad-hoc RecomputeAll cadence did. When
  // `scope_averages_too` is set the scheduled recompute also refreshes balance averages (the
  // annealing behavior); the local-search incremental path leaves it off so average refreshes
  // stay pinned to refresh boundaries and cannot alter move decisions.
  void SetAutoRecompute(int64_t every_moves, bool scope_averages_too);

  // Debug drift assertion: at every scheduled recompute, SM_CHECK that the relative drift
  // between the incrementally maintained and the exact objective is below `tolerance`.
  void SetDriftCheck(bool enabled, double tolerance);

  // Relative drift |incremental - exact| / max(1, |exact|) of the current objective. Exposed
  // for the drift regression test; does not mutate state.
  double MeasureDrift() const;

  // Applied moves (ApplyMove calls) since Init; drives the auto-recompute schedule.
  int64_t applied_moves() const { return applied_moves_; }

  // Exact discrete violation counts for the current assignment.
  ViolationCounts Count() const;

  // Per-bin penalty restricted to the goal families in `mask`; used to pick hot bins.
  // Group penalties are attributed to every bin hosting a member of a violating group.
  // `pool` (optional) shards the scan for large problems; every sharded write is to a disjoint
  // per-bin / per-group slot, so the output is bit-identical with and without a pool.
  //
  // `scan_groups` (optional, sorted ascending) restricts the group-penalty pass to the listed
  // groups. The restricted scan is exact — not approximate — whenever every group with nonzero
  // penalty is listed: unlisted groups would contribute nothing to the scatter anyway, and the
  // ascending iteration order keeps the floating-point accumulation order identical to the full
  // scan's. Incremental repair maintains exactly that invariant (DESIGN.md §14).
  std::vector<double> ComputeBinPenalties(uint32_t mask, ThreadPool* pool = nullptr,
                                          const std::vector<int32_t>* scan_groups = nullptr) const;

  // Appends every group whose current affinity+exclusion penalty is nonzero (above the same
  // epsilon the penalty scatter uses). Seeds the incremental dirty-group set.
  void AppendViolatingGroups(std::vector<int32_t>* out) const;

  // Number of group slots (max group id + 1).
  int32_t num_groups() const { return static_cast<int32_t>(group_offsets_.size()) - 1; }

  // Entities currently unassigned or stranded on dead bins.
  std::vector<int32_t> UnavailableEntities() const;

  // -- Accessors used by the search engine ----------------------------------------------------
  const std::vector<int32_t>& bin_entities(int bin) const {
    return bin_entities_[static_cast<size_t>(bin)];
  }
  double bin_load(int bin, int m) const {
    return bin_load_[static_cast<size_t>(bin) * static_cast<size_t>(metrics_) +
                     static_cast<size_t>(m)];
  }
  double BinUtilization(int bin, int m) const;
  // Max utilization across metrics (used for sorting bins cold-to-hot).
  double BinMaxUtilization(int bin) const;
  // True if placing `entity` on `bin` keeps every hard capacity constraint satisfied.
  bool FitsHard(int entity, int bin) const;
  // True if `bin` already hosts another replica of `entity`'s group. Two replicas of one shard
  // on one server is forbidden outright (a single container restart would take both down).
  bool GroupColocated(int entity, int bin) const;
  // Group members (entity ids, ascending) of a group, empty for -1.
  std::span<const int32_t> GroupMembers(int32_t group) const;
  // Regions in which the group currently falls short of an affinity goal.
  std::vector<int32_t> GroupAffinityDeficitRegions(int32_t group) const;
  // Current affinity+exclusion penalty of a group (0 for ungrouped entities).
  double GroupPenaltyOf(int32_t group) const { return GroupPenalty(group, -1, -1); }
  // Total normalized size of an entity (for large-shards-first ordering).
  double EntitySize(int entity) const { return entity_size_[static_cast<size_t>(entity)]; }

 private:
  struct BalanceState {
    BalanceSpec spec;
    double weight = 0.0;
    std::vector<double> avg_util;  // per domain of spec.scope
  };

  bool BinLive(int bin) const {
    return bin >= 0 && problem_->bin_alive[static_cast<size_t>(bin)] != 0;
  }
  // Load-related penalty (capacity + threshold + balance) of one (bin, metric) at `load`.
  double BinMetricPenalty(int bin, int m, double load, uint32_t mask) const;
  // Full load penalty of a bin at its current loads.
  double BinLoadPenalty(int bin, uint32_t mask) const;
  // Affinity + exclusion penalty of a group given a hypothetical move (entity -> to); pass
  // entity = -1 for the current state.
  double GroupPenalty(int32_t group, int moved_entity, int to) const;
  double DrainPenaltyOf(int bin) const;
  double ComputeExactObjective() const;
  void MaybeAutoRecompute();

  SolverProblem* problem_;
  const Rebalancer* specs_;
  int metrics_ = 0;

  std::vector<double> bin_load_;                     // bins x metrics
  std::vector<std::vector<int32_t>> bin_entities_;   // entity ids per bin
  // Group members in CSR layout: group g's entity ids, ascending, are
  // group_entities_[group_offsets_[g] .. group_offsets_[g + 1]). Groups never change after
  // Init, so one flat array replaces a vector per group.
  std::vector<int32_t> group_offsets_{0};  // groups + 1
  std::vector<int32_t> group_entities_;
  std::unordered_map<int32_t, std::vector<AffinityEntry>> group_affinity_;
  std::vector<BalanceState> balance_states_;
  std::vector<double> capacity_limit_;               // per metric; <0 if no capacity constraint
  std::vector<double> entity_size_;
  double objective_ = 0.0;

  // Drift-bounded auto-recompute (satellite of DESIGN.md §14).
  int64_t applied_moves_ = 0;
  int64_t auto_recompute_moves_ = 0;
  int64_t moves_since_recompute_ = 0;
  bool auto_recompute_averages_ = false;
  bool drift_check_ = false;
  double drift_tolerance_ = 1e-6;
};

}  // namespace shardman

#endif  // SRC_SOLVER_VIOLATION_TRACKER_H_
