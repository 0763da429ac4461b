// ParallelSolver: the parallel portfolio layer over LocalSearch, and the one dispatch path
// behind Rebalancer::Solve.
//
// Runs K independently-seeded local-search starts concurrently on a work-stealing ThreadPool
// (each on its own clone of the problem + ViolationTracker), then reduces to a single winner
// with a deterministic tie-break: lowest final objective, then fewest discrete violations, then
// lowest start index. Because
//   * each start is a pure function of (problem, specs, per-start options) once its budgets are
//     deterministic (eval/move budgets, not wall clock),
//   * start seeds are derived from the master seed by start index alone,
//   * every pool-sharded scan writes disjoint per-element outputs (no parallel floating-point
//     reductions anywhere), and
//   * the reduction order is fixed by start index,
// the SolveResult (moves, objective, violations) is byte-identical for a given master seed at
// any thread count. threads=1/starts=1 runs one LocalSearch in place on the calling thread.
//
// This is the DREAMS-style lesson (PAPERS.md, arXiv:2509.07497) — parallel allocation decisions
// need not cost solution quality — combined with the reproducibility requirement of
// arXiv:1703.00042: the portfolio buys wall-clock speed and solution quality (best of K) while
// staying replayable.

#ifndef SRC_SOLVER_PARALLEL_SOLVER_H_
#define SRC_SOLVER_PARALLEL_SOLVER_H_

#include <cstdint>

#include "src/solver/rebalancer.h"

namespace shardman {

class ParallelSolver {
 public:
  explicit ParallelSolver(const Rebalancer* specs);

  // Solves in place (the winning start's assignment is written back into `problem`) and returns
  // the winner's SolveResult with portfolio totals (evaluations summed across starts).
  SolveResult Solve(SolverProblem& problem, const SolveOptions& options) const;

  // Seed of start `start` under master seed `seed`: start 0 runs the master seed itself (so a
  // 1-start portfolio is one local search under `seed`), later starts get splitmix64-derived
  // independent streams. Exposed for tests.
  static uint64_t StartSeed(uint64_t seed, int start);

 private:
  const Rebalancer* specs_;
};

}  // namespace shardman

#endif  // SRC_SOLVER_PARALLEL_SOLVER_H_
