// LocalSearch: the greedy local-search engine behind Rebalancer::Solve (§5.3).
//
// The search repeatedly picks the "hottest" bin (largest violation contribution under the
// current goal batch), evaluates candidate moves of its largest entities to sampled target bins,
// and applies the best improving move. It terminates when no improving move remains or a
// time/move budget is exhausted.
//
// With SolveOptions::incremental (DESIGN.md §14) the refresh phase runs restricted scans: scope
// averages come from the O(bins) load sums and group penalties are rescanned only for the dirty
// groups (initially violating plus every group an applied move touched). The dirty-group
// invariant makes those scans exact, so incremental and full solves of the same problem produce
// byte-identical moves — the mode changes refresh cost only.

#ifndef SRC_SOLVER_LOCAL_SEARCH_H_
#define SRC_SOLVER_LOCAL_SEARCH_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/common/flat_id_map.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/solver/incremental.h"
#include "src/solver/problem.h"
#include "src/solver/rebalancer.h"
#include "src/solver/violation_tracker.h"

namespace shardman {

class LocalSearch {
 public:
  // `pool` (optional) shards the refresh-phase scans (bin penalties, cold-bin sorts) across
  // the pool for large problems. Sharded computations write disjoint per-element outputs, so
  // results are bit-identical with and without a pool — the pool affects wall time only.
  LocalSearch(SolverProblem* problem, const Rebalancer* specs, const SolveOptions& options,
              ThreadPool* pool = nullptr);

  SolveResult Run();

 private:
  using Clock = std::chrono::steady_clock;

  // Goal batches in descending priority (§5.3: earlier batches get larger budget shares).
  struct Batch {
    uint32_t mask;
    double budget_fraction;
  };

  // Absolute budget deadline: `evals` is the deterministic budget (candidate evaluations since
  // the solve started); `wall` is the nondeterministic safety cap. 0 disables either limit.
  struct Deadline {
    TimeMicros wall = 0;
    int64_t evals = 0;
  };

  TimeMicros Elapsed() const;
  bool BudgetExhausted(const Deadline& deadline) const;

  // Fast placement of unassigned entities (emergency mode and the hard batch): least-loaded of
  // a feasibility-checked sample, spreading a failed server's entities widely (§5.1 goal 7).
  void PlaceUnavailable(const Deadline& deadline);

  void RunBatch(uint32_t mask, const Deadline& deadline);

  // Attempts the single best improving move of an entity off `bin`. Entities are examined in
  // priority order for the current goal batch: members of violating groups first in the group
  // batch, largest-first in the load batches. Returns true if applied.
  bool TryImproveBin(int bin, uint32_t mask, const Deadline& deadline);

  // Attempts a two-way swap between `bin`'s largest entity and a small entity of a sampled
  // cold bin. Returns true if an improving swap was applied.
  bool TrySwap(int bin);

  // Samples a candidate target bin for `entity` (stratified across regions when enabled,
  // honoring the entity's group affinity/spread deficits; uniform otherwise).
  int SampleCandidate(int entity);

  // Rebuilds hot-bin penalties, per-region cold-bin lists and scope averages. In incremental
  // mode the group-penalty pass is restricted to the sorted dirty-group list.
  void RefreshStructures(uint32_t mask);

  void RecordTrace(bool force);

  void ApplyAndRecord(int entity, int to);

  // Marks the moved entity's group dirty so the restricted group scan keeps covering every
  // group whose penalty may have changed.
  void MarkGroupDirty(int entity);

  // -- Failed (class, from-bin) bookkeeping: generation-stamped flat slots ---------------------
  // One slot per equivalence class holding the bin the class last failed to improve from in the
  // current generation; bumping the generation is the O(1) clear on every applied move. Between
  // clears each hot bin is visited at most once, so a single slot per class is exactly
  // equivalent to the set of failed pairs — with zero rehash allocations in the move loop.
  bool ClassFailed(int32_t cls, int32_t bin) const {
    return class_fail_gen_[static_cast<size_t>(cls)] == fail_gen_ &&
           class_fail_bin_[static_cast<size_t>(cls)] == bin;
  }
  void MarkClassFailed(int32_t cls, int32_t bin) {
    class_fail_gen_[static_cast<size_t>(cls)] = fail_gen_;
    class_fail_bin_[static_cast<size_t>(cls)] = bin;
  }
  void ClearFailed() { ++fail_gen_; }

  SolverProblem* problem_;
  const Rebalancer* specs_;
  SolveOptions options_;
  ViolationTracker tracker_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;  // not owned; may be null (sequential refresh)

  Clock::time_point start_;
  TimeMicros last_trace_ = -1;

  std::vector<SolverMove> moves_;
  int64_t evaluations_ = 0;
  bool converged_ = false;
  std::vector<TracePoint> trace_;

  // Refreshable structures.
  std::vector<double> bin_penalty_;
  std::vector<int32_t> hot_bins_;                       // sorted hottest-first
  std::vector<std::vector<int32_t>> region_cold_bins_;  // per region, coldest-first
  std::vector<int32_t> all_live_bins_;
  int moves_since_refresh_ = 0;
  std::vector<int32_t> visit_;  // TryImproveBin's ordering of the hot bin's entities

  // Incremental repair (active when options_.incremental and the dirty fraction stayed under
  // the fallback threshold).
  bool incremental_ = false;
  GenStampSet dirty_groups_;
  std::vector<int32_t> scan_groups_;  // sorted scratch handed to the restricted scan

  // Equivalence classes: dense class id per entity, numbered through class_ids_.
  FlatIdMap class_ids_;  // class hash -> class id
  std::vector<int32_t> entity_class_;
  std::vector<uint32_t> class_fail_gen_;
  std::vector<int32_t> class_fail_bin_;
  uint32_t fail_gen_ = 1;
};

}  // namespace shardman

#endif  // SRC_SOLVER_LOCAL_SEARCH_H_
