#include "src/solver/parallel_solver.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/solver/local_search.h"

namespace shardman {

ParallelSolver::ParallelSolver(const Rebalancer* specs) : specs_(specs) {
  SM_CHECK(specs != nullptr);
}

uint64_t ParallelSolver::StartSeed(uint64_t seed, int start) {
  if (start == 0) {
    return seed;
  }
  // splitmix64 over (seed, start): deterministic, independent-looking streams per start index
  // regardless of how many threads execute the portfolio.
  uint64_t x = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(start);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

SolveResult ParallelSolver::Solve(SolverProblem& problem, const SolveOptions& options) const {
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  const int starts = std::max(1, options.starts);
  const int threads = std::max(1, options.threads);
  ThreadPool pool(threads);

  SolveResult result;
  if (starts == 1) {
    // Single start: solve in place; the pool (if wider than one thread) shards the refresh
    // scans, which is bit-identical to the sequential scan by construction.
    LocalSearch search(&problem, specs_, options, threads > 1 ? &pool : nullptr);
    result = search.Run();
  } else {
    struct StartRun {
      SolverProblem clone;
      SolveResult result;
    };
    std::vector<StartRun> runs(static_cast<size_t>(starts));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(static_cast<size_t>(starts));
    // Give the intra-start refresh sharding the pool only when threads outnumber starts;
    // otherwise every thread is already saturated by whole starts. Either choice yields the
    // same bits — this is purely a scheduling decision.
    ThreadPool* shard_pool = threads > starts ? &pool : nullptr;
    for (int i = 0; i < starts; ++i) {
      tasks.push_back([this, i, &runs, &problem, &options, shard_pool]() {
        StartRun& run = runs[static_cast<size_t>(i)];
        run.clone = problem;  // deep copy: each start mutates its own assignment
        SolveOptions per_start = options;
        per_start.seed = StartSeed(options.seed, i);
        LocalSearch search(&run.clone, specs_, per_start, shard_pool);
        run.result = search.Run();
      });
    }
    pool.Run(std::move(tasks));

    // Deterministic reduction: objective, then discrete violations, then start index. Floating
    // comparisons are exact — every start's objective is a deterministic function of its seed.
    int winner = 0;
    for (int i = 1; i < starts; ++i) {
      const SolveResult& cand = runs[static_cast<size_t>(i)].result;
      const SolveResult& best = runs[static_cast<size_t>(winner)].result;
      if (cand.final_objective < best.final_objective ||
          (cand.final_objective == best.final_objective &&
           cand.final_violations.total() < best.final_violations.total())) {
        winner = i;
      }
    }
    int64_t total_evaluations = 0;
    for (const StartRun& run : runs) {
      total_evaluations += run.result.evaluations;
    }
    problem.assignment = runs[static_cast<size_t>(winner)].clone.assignment;
    result = std::move(runs[static_cast<size_t>(winner)].result);
    result.winner_start = winner;
    result.evaluations = total_evaluations;
  }
  result.starts = starts;
  result.wall_time = std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                           wall_start)
                         .count();
  result.pool_steals = pool.steals();
  result.pool_tasks = pool.tasks_executed();
  return result;
}

}  // namespace shardman
