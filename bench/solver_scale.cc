// Solver at 1M-shard scale: warm-started incremental repair (DESIGN.md §14). Extends the
// Fig. 21/22 reproductions past the paper's 375K-shard ceiling.
//
// Two modes race to a fixed convergence target (violations <= max(1, shards/10000)) over a
// ladder of deterministic eval budgets:
//   * cold — Fig.21-style random initial assignment, full solve;
//   * warm — previous-round greedy-balanced assignment perturbed by server kills/drains and
//            load shifts, repaired with the warm-started incremental solver.
//
// The headline number is ratio_cold_over_warm, the ratio of evals-to-convergence: the
// warm-started repair must reach the target with at least 5x fewer evaluations than the cold
// full solve (when cold does not converge at the ladder's top budget, its lower bound is used
// and flagged as such).
//
// The second phase re-runs each mode at one budget across threads {1, 2, 8} and requires the
// final assignment to be byte-identical at every thread count; any divergence exits nonzero.
//
// Output: BENCH_solver_scale.json in the working directory (shared schema, DESIGN.md §16);
// shrink via SM_BENCH_SCALE.

#include <iostream>

#include "bench/bench_util.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct BudgetPoint {
  int64_t budget = 0;
  int64_t evaluations = 0;
  int64_t violations = 0;
  int64_t moves = 0;
  double seconds = 0.0;
  bool converged = false;
};

struct ModeResult {
  std::string mode;
  std::vector<BudgetPoint> points;
  // Evaluations actually consumed by the first converging run; -1 if the ladder topped out.
  int64_t evals_to_convergence = -1;
  int64_t max_budget = 0;
  int64_t max_budget_evals = 0;
};

SolveOptions BaseOptions() {
  SolveOptions options;
  options.seed = 7;
  options.time_budget = Minutes(30);  // wall safety cap, never the binding budget
  options.trace_interval = 0;
  return options;
}

ModeResult RunMode(const std::string& mode, const SolverProblem& base, const Rebalancer& rb,
                   const SolveOptions& proto, const std::vector<int64_t>& budgets,
                   int64_t target) {
  ModeResult out;
  out.mode = mode;
  for (int64_t budget : budgets) {
    SolverProblem problem = base;  // fresh identical instance per budget
    SolveOptions options = proto;
    options.eval_budget = budget;
    SolveResult result = rb.Solve(problem, options);
    BudgetPoint point;
    point.budget = budget;
    point.evaluations = result.evaluations;
    point.violations = result.final_violations.total();
    point.moves = static_cast<int64_t>(result.moves.size());
    point.seconds = ToSeconds(result.wall_time);
    point.converged = point.violations <= target;
    out.points.push_back(point);
    out.max_budget = budget;
    out.max_budget_evals = result.evaluations;
    std::cout << "  " << mode << " budget=" << budget << " evals=" << point.evaluations
              << " violations=" << point.violations << " moves=" << point.moves << " ("
              << FormatDouble(point.seconds, 2) << "s)"
              << (point.converged ? "  <- converged" : "") << "\n";
    if (point.converged) {
      out.evals_to_convergence = point.evaluations;
      break;  // the ladder is ascending; the first hit is the answer
    }
  }
  return out;
}

// Runs `proto` at one budget across thread counts and demands byte-identical assignments.
bool ThreadIdentity(const std::string& mode, const SolverProblem& base, const Rebalancer& rb,
                    const SolveOptions& proto, int64_t budget) {
  const int thread_counts[] = {1, 2, 8};
  std::vector<int32_t> reference;
  double ref_objective = 0.0;
  int64_t ref_violations = 0;
  bool identical = true;
  for (int threads : thread_counts) {
    SolverProblem problem = base;
    SolveOptions options = proto;
    options.eval_budget = budget;
    options.threads = threads;
    SolveResult result = rb.Solve(problem, options);
    if (reference.empty()) {
      reference = problem.assignment;
      ref_objective = result.final_objective;
      ref_violations = result.final_violations.total();
      continue;
    }
    bool same = problem.assignment == reference && result.final_objective == ref_objective &&
                result.final_violations.total() == ref_violations;
    identical = identical && same;
    std::cout << "  " << mode << " threads=" << threads << " identical=" << (same ? "yes" : "NO")
              << "\n";
  }
  return identical;
}

}  // namespace

int main() {
  PrintHeader("Solver scale: 1M shards, warm-started incremental repair",
              "DESIGN.md §14 — beyond Fig. 21's 375K ceiling; >=5x fewer evals to convergence");

  const double scale = BenchScale();
  ZippyProblemSpec spec;
  spec.servers = std::max(40, static_cast<int>(13334 * scale));  // 13334 * 75 ≈ 1M shards
  spec.with_groups = true;
  spec.seed = 42;
  const int64_t shards = static_cast<int64_t>(spec.servers) * spec.shards_per_server;
  const int64_t target = std::max<int64_t>(1, shards / 10000);
  std::cout << "servers=" << spec.servers << " shards=" << shards
            << " convergence_target=" << target << " violations\n\n";

  Rebalancer rb = MakeZippySpecs(spec);

  // Cold: the Fig.21 stress problem — every shard on a uniformly random server.
  SolverProblem cold_base = MakeZippyProblem(spec);

  // Warm: the previous round's *solved* assignment, perturbed like a production round (server
  // kills/drains, load shifts). The pre-solve starts from a greedy-balanced packing so it is
  // cheaper than the cold stress run; its cost is setup, not part of any measured mode.
  SolverProblem warm_base = MakeZippyProblem(spec);
  AssignGreedyBalanced(warm_base);
  int64_t warm_base_violations = 0;
  {
    SolveOptions presolve = BaseOptions();
    presolve.incremental = false;
    presolve.eval_budget = 40 * shards;
    SolveResult prev_round = rb.Solve(warm_base, presolve);
    warm_base_violations = prev_round.final_violations.total();
    std::cout << "warm base (previous round): " << prev_round.initial_violations.total()
              << " -> " << warm_base_violations << " violations, "
              << prev_round.evaluations << " evals ("
              << FormatDouble(ToSeconds(prev_round.wall_time), 1) << "s)\n\n";
  }
  PerturbSpec perturb;
  perturb.seed = 99;
  PerturbProblem(warm_base, perturb);

  SolveOptions cold_proto = BaseOptions();
  cold_proto.incremental = false;

  SolveOptions warm_proto = BaseOptions();
  warm_proto.incremental = true;

  // Ascending eval-budget ladders, sized relative to the shard count. The warm ladders start
  // well below cold's: the dirty set after the perturbation is a few percent of the fleet.
  std::vector<int64_t> cold_budgets = {shards, 4 * shards, 12 * shards, 24 * shards};
  std::vector<int64_t> warm_budgets = {shards / 32, shards / 8, shards / 2, shards,
                                       2 * shards};

  std::cout << "-- convergence vs eval budget --\n";
  ModeResult cold = RunMode("cold", cold_base, rb, cold_proto, cold_budgets, target);
  ModeResult warm = RunMode("warm", warm_base, rb, warm_proto, warm_budgets, target);

  // Headline ratio: cold evals-to-convergence over warm's. A cold run that never converged
  // contributes its top-budget consumption as a lower bound (flagged in the JSON).
  bool ratio_is_lower_bound = cold.evals_to_convergence < 0;
  int64_t cold_evals = ratio_is_lower_bound ? cold.max_budget_evals : cold.evals_to_convergence;
  double ratio_warm = 0.0;
  if (warm.evals_to_convergence > 0) {
    ratio_warm = static_cast<double>(cold_evals) / static_cast<double>(warm.evals_to_convergence);
  }

  std::cout << "\ncold evals-to-convergence" << (ratio_is_lower_bound ? " (lower bound)" : "")
            << ": " << cold_evals << "\n";
  std::cout << "warm evals-to-convergence: " << warm.evals_to_convergence
            << "  (cold/warm = " << FormatDouble(ratio_warm, 1) << "x)\n\n";

  std::cout << "-- thread identity (threads 1/2/8, byte-identical assignments) --\n";
  bool deterministic = true;
  deterministic &= ThreadIdentity("cold", cold_base, rb, cold_proto, cold_budgets.front());
  deterministic &= ThreadIdentity("warm", warm_base, rb, warm_proto, warm_budgets[1]);

  BenchJson json("solver_scale", scale);
  json.Measure("servers", spec.servers);
  json.Measure("shards", shards);
  json.Measure("target_violations", target);
  json.Measure("warm_base_violations", warm_base_violations);
  json.MeasureFlag("deterministic", deterministic);
  json.Measure("ratio_cold_over_warm", ratio_warm);
  json.MeasureFlag("ratio_is_lower_bound", ratio_is_lower_bound);
  json.Require("deterministic");
  // Evals-to-convergence depend on the problem size, so baselines compare at equal scale only;
  // the 5x floor holds at every scale.
  json.Gate({.metric = "ratio_cold_over_warm", .tolerance = kBenchTolerance, .bound = "5",
             .same_scale = true});
  for (const ModeResult* mode : {&cold, &warm}) {
    const std::string prefix = "mode=" + mode->mode + "/";
    json.Measure(prefix + "evals_to_convergence", mode->evals_to_convergence);
    for (const BudgetPoint& p : mode->points) {
      const std::string point = prefix + "budget=" + std::to_string(p.budget) + "/";
      json.Measure(point + "evaluations", p.evaluations);
      json.Measure(point + "violations", p.violations);
      json.Measure(point + "moves", p.moves);
      json.Measure(point + "seconds", p.seconds);
      json.MeasureFlag(point + "converged", p.converged);
    }
    // Only a converged mode carries this gate, so a baseline mode that converged and a fresh
    // one that no longer does shows up as a dropped gate.
    if (mode->evals_to_convergence >= 0) {
      json.Gate({.metric = prefix + "evals_to_convergence", .direction = "lower",
                 .tolerance = kBenchTolerance, .same_scale = true});
    }
  }
  json.Write();

  if (!deterministic) {
    std::cout << "ERROR: assignments differ across thread counts — determinism contract broken\n";
    return 1;
  }
  return 0;
}
