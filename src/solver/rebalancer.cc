#include "src/solver/rebalancer.h"

#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/solver/parallel_solver.h"
#include "src/solver/violation_tracker.h"

namespace shardman {

void Rebalancer::AddConstraint(const CapacitySpec& spec) { capacities_.push_back(spec); }

void Rebalancer::AddGoal(const BalanceSpec& spec, double weight) {
  balances_.emplace_back(spec, weight);
}

void Rebalancer::AddGoal(const ThresholdSpec& spec, double weight) {
  thresholds_.emplace_back(spec, weight);
}

void Rebalancer::AddGoal(const AffinitySpec& spec, double weight) {
  for (AffinityEntry entry : spec.entries) {
    entry.weight *= weight;
    affinities_.push_back(entry);
  }
}

void Rebalancer::AddGoal(const ExclusionSpec& spec, double weight) {
  exclusions_.emplace_back(spec, weight);
}

void Rebalancer::AddGoal(const DrainSpec& spec, double weight) {
  (void)spec;
  drain_weight_ = weight;
  has_drain_goal_ = true;
}

SolveResult Rebalancer::Solve(SolverProblem& problem, const SolveOptions& options) const {
  SolveResult result = SolveUnrecorded(problem, options);
  RecordSolve(result);
  return result;
}

SolveResult Rebalancer::SolveUnrecorded(SolverProblem& problem,
                                        const SolveOptions& options) const {
  return ParallelSolver(this).Solve(problem, options);
}

void Rebalancer::RecordSolve(const SolveResult& result) {
  SM_COUNTER_ADD("sm.solver.portfolio_starts", result.starts);
  SM_COUNTER_ADD("sm.solver.pool_steals", result.pool_steals);
  SM_COUNTER_ADD("sm.solver.pool_tasks", result.pool_tasks);
  // Wall-clock values go to metrics only, never into traces: trace output must stay
  // deterministic for a fixed seed, and solver wall time is host-dependent.
  SM_COUNTER_INC("sm.solver.solves");
  SM_COUNTER_ADD("sm.solver.moves_proposed", static_cast<int64_t>(result.moves.size()));
  SM_COUNTER_ADD("sm.solver.evaluations", result.evaluations);
  SM_COUNTER_ADD("sm.solver.dirty_entities", result.dirty_entities);
  if (result.incremental_used) {
    SM_COUNTER_INC("sm.solver.incremental_solves");
  }
  SM_HISTOGRAM_OBSERVE("sm.solver.wall_ms", ToMillis(result.wall_time));
  double wall_s = ToSeconds(result.wall_time);
  if (wall_s > 0.0) {
    SM_GAUGE_SET("sm.solver.moves_per_sec", static_cast<double>(result.moves.size()) / wall_s);
    SM_GAUGE_SET("sm.solver.evals_per_sec", static_cast<double>(result.evaluations) / wall_s);
  }
}

ViolationCounts Rebalancer::Count(const SolverProblem& problem) const {
  // Count() does not mutate; the tracker API takes a mutable pointer for ApplyMove, which we
  // do not call here.
  ViolationTracker tracker(const_cast<SolverProblem*>(&problem), this);
  tracker.Init();
  return tracker.Count();
}

}  // namespace shardman
