// Rebalancer: a generic constraint solver for assignment problems, reproducing the API surface
// and local-search backend the paper describes (§5.2, Fig. 13, §5.3).
//
// Systems code expresses *what* a good placement looks like by adding constraint and goal specs;
// the solver decides *how* to get there. Hard constraints use effectively-infinite weights; soft
// goals use caller-supplied weights whose relative magnitudes encode the priority order of §5.1.
//
// The backend is greedy local search with:
//   * incremental objective deltas (no full re-evaluation per candidate move);
//   * shard equivalence classes to skip redundant evaluations (§5.3 item "reuses the computation
//     for equivalent shards");
//   * candidate sampling stratified across server groups (§5.3 "groups underutilized servers by
//     properties (e.g., regions), samples servers from each group");
//   * goal batches of descending priority, earlier batches getting larger time budgets;
//   * large-shards-first move ordering;
//   * optional two-way swaps when single moves stall.
// Every optimization is individually switchable so the Fig. 22 ablation can disable them.
// Solve() always runs this backend through ParallelSolver as one or more seeded starts, and
// SolveOptions::incremental is the one switch for warm-started repair (DESIGN.md §14).

#ifndef SRC_SOLVER_REBALANCER_H_
#define SRC_SOLVER_REBALANCER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/solver/problem.h"

namespace shardman {

// ---- Specs (mirroring Fig. 13 of the paper) --------------------------------------------------

// Hard constraint: per-bin load in `metric` must not exceed capacity * limit_fraction.
struct CapacitySpec {
  int metric = 0;
  double limit_fraction = 1.0;
};

// Soft goal: no bin's utilization in `metric` should exceed the mean utilization of its scope
// domain by more than `tolerance` (paper example: within 10% of the average).
struct BalanceSpec {
  DomainScope scope = DomainScope::kGlobal;
  int metric = 0;
  double tolerance = 0.10;
};

// Soft goal: no bin's utilization in `metric` should exceed `threshold` (paper example: 90%).
struct ThresholdSpec {
  int metric = 0;
  double threshold = 0.9;
};

// Soft goal: at least `min_count` entities of `group` should be placed in region `region`.
// This is the per-shard regional placement preference of §5.1 (soft goal 1).
struct AffinityEntry {
  int32_t group = -1;
  int32_t region = -1;
  int min_count = 1;
  double weight = 1.0;
};
struct AffinitySpec {
  std::vector<AffinityEntry> entries;
};

// Soft goal: entities sharing a group (replicas of one shard) should land in distinct domains of
// `scope` — the spread-of-replicas goal of §5.1 (soft goal 2). Violations count co-located
// pairs.
struct ExclusionSpec {
  DomainScope scope = DomainScope::kRegion;
};

// Soft goal: entities should move off draining bins (planned-maintenance goal of §5.1, goal 3).
struct DrainSpec {
  double placeholder = 0.0;  // no parameters; draining bins are flagged in the problem
};

// ---- Options / results ------------------------------------------------------------------------

struct SolveOptions {
  // Wall-clock SAFETY CAP for the whole solve; <=0 means uncapped. This is not the primary
  // budget: a solve that stops on wall time is not reproducible (it depends on machine load).
  // Size `eval_budget` to bind first and leave this as the runaway guard.
  TimeMicros time_budget = Seconds(60);
  // Maximum number of applied moves. <=0 means unlimited.
  int64_t move_budget = 0;
  // Deterministic budget: maximum candidate-move evaluations per start. <=0 means unlimited
  // (run to convergence or another budget). Evaluations are counted identically on every
  // machine and at every thread count, so results for a fixed seed are reproducible.
  int64_t eval_budget = 0;
  uint64_t seed = 1;

  // Parallel portfolio (ParallelSolver): `starts` independently-seeded local searches race and
  // the best result wins a deterministic reduction (objective, then violations, then start
  // index), so the outcome depends only on `seed` and `starts` — never on `threads`.
  // threads=1, starts=1 runs one local search inline on the calling thread.
  int threads = 1;
  int starts = 1;

  // Candidate bins sampled per entity evaluation.
  int candidates_per_entity = 12;
  // Entities (largest-first) considered per visit to a hot bin.
  int entities_per_bin_visit = 8;

  // §5.3 optimizations, individually switchable (Fig. 22 turns these off for the baseline).
  bool stratified_sampling = true;
  bool large_shards_first = true;
  bool goal_batching = true;
  bool equivalence_classes = true;
  bool enable_swaps = true;

  // Warm-started incremental repair (DESIGN.md §14). When the problem arrives with a mostly
  // good assignment (the previous round's placement plus a perturbation), the solver skips the
  // per-refresh full-problem rescans: scope averages are rebuilt from the O(bins) load sums,
  // and group penalties are rescanned only for the dirty groups (initially violating ones plus
  // every group a move touched). The dirty-group invariant makes the restricted scan exact, so
  // an incremental solve produces byte-identical moves to a full solve of the same problem —
  // the switch changes refresh cost, never results.
  bool incremental = false;
  // Fall back to the full solve when more than this fraction of entities is dirty at the start
  // (dead/draining/over-capacity bins, unassigned entities, violating groups): a mostly-dirty
  // problem gains nothing from the restricted scans.
  double dirty_fallback_fraction = 0.35;

  // Emergency mode (§5.1): place unassigned/dead-bin entities as fast as possible subject to
  // hard constraints only; soft goals may temporarily deteriorate.
  bool emergency = false;

  // Trace sampling interval for progress curves (wall time); 0 disables tracing.
  TimeMicros trace_interval = Millis(200);
};

// Discrete violation counts, matching what Fig. 21/22 plot.
struct ViolationCounts {
  int64_t unassigned = 0;        // entities with no live bin
  int64_t capacity = 0;          // (bin, metric) pairs over hard capacity
  int64_t threshold = 0;         // (bin, metric) pairs over the soft utilization threshold
  int64_t balance = 0;           // (bin, metric, scope) tuples above scope average + tolerance
  int64_t affinity = 0;          // unmet region-preference replica counts
  int64_t exclusion = 0;         // co-located replica pairs
  int64_t drain = 0;             // entities still on draining bins

  int64_t total() const {
    return unassigned + capacity + threshold + balance + affinity + exclusion + drain;
  }
};

struct TracePoint {
  TimeMicros wall_elapsed = 0;
  int64_t moves_applied = 0;
  int64_t violations = 0;
  double objective = 0.0;
  // Candidate evaluations consumed when the point was recorded: the deterministic x-axis for
  // convergence curves (wall_elapsed is host-dependent).
  int64_t evaluations = 0;
};

struct SolveResult {
  std::vector<SolverMove> moves;       // in application order (the winning start's moves)
  ViolationCounts initial_violations;
  ViolationCounts final_violations;
  double final_objective = 0.0;
  TimeMicros wall_time = 0;            // nondeterministic; excluded from the determinism contract
  int64_t evaluations = 0;             // candidate moves evaluated, summed across all starts
  std::vector<TracePoint> trace;
  bool converged = false;              // no improving move remained (in the winning start)
  int starts = 1;                      // portfolio starts executed
  int winner_start = 0;                // index of the start whose result this is
  int64_t pool_steals = 0;             // the solve's ThreadPool counters
  int64_t pool_tasks = 0;

  // Incremental-repair stats (meaningful when SolveOptions::incremental was set).
  bool incremental_used = false;       // restricted scans ran (no fallback, not emergency)
  int64_t dirty_entities = 0;          // entities in the initial dirty set
  int64_t dirty_bins = 0;              // bins in the initial dirty set (incl. rack closure)
};

// ---- Rebalancer -------------------------------------------------------------------------------

class Rebalancer {
 public:
  Rebalancer() = default;

  // Hard constraints.
  void AddConstraint(const CapacitySpec& spec);

  // Soft goals with priority weights (higher = more important). The SM allocator uses weight
  // tiers mirroring the §5.1 priority order.
  void AddGoal(const BalanceSpec& spec, double weight);
  void AddGoal(const ThresholdSpec& spec, double weight);
  void AddGoal(const AffinitySpec& spec, double weight);
  void AddGoal(const ExclusionSpec& spec, double weight);
  void AddGoal(const DrainSpec& spec, double weight);

  // Solves in place: applies moves to problem.assignment and reports them in the result.
  // Dispatches through ParallelSolver at every thread/start count, then RecordSolve.
  SolveResult Solve(SolverProblem& problem, const SolveOptions& options) const;
  // Solve without RecordSolve. The metrics registry is not thread-safe, so solves that run
  // side by side (SmAllocator::AllocateParallel) record from one thread afterwards.
  SolveResult SolveUnrecorded(SolverProblem& problem, const SolveOptions& options) const;
  // Adds a finished solve to the sm.solver.* metrics.
  static void RecordSolve(const SolveResult& result);

  // Counts violations of the configured specs for the problem's current assignment, without
  // solving. Used for monitoring and by the continuous-LB experiment.
  ViolationCounts Count(const SolverProblem& problem) const;

  // Accessors used by the search engine.
  const std::vector<CapacitySpec>& capacities() const { return capacities_; }
  const std::vector<std::pair<BalanceSpec, double>>& balances() const { return balances_; }
  const std::vector<std::pair<ThresholdSpec, double>>& thresholds() const { return thresholds_; }
  const std::vector<AffinityEntry>& affinities() const { return affinities_; }
  const std::vector<std::pair<ExclusionSpec, double>>& exclusions() const { return exclusions_; }
  double drain_weight() const { return drain_weight_; }
  bool has_drain_goal() const { return has_drain_goal_; }

 private:
  std::vector<CapacitySpec> capacities_;
  std::vector<std::pair<BalanceSpec, double>> balances_;
  std::vector<std::pair<ThresholdSpec, double>> thresholds_;
  std::vector<AffinityEntry> affinities_;  // flattened AffinitySpec entries with weights
  std::vector<std::pair<ExclusionSpec, double>> exclusions_;
  double drain_weight_ = 0.0;
  bool has_drain_goal_ = false;
};

}  // namespace shardman

#endif  // SRC_SOLVER_REBALANCER_H_
