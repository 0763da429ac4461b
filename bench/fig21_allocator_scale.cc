// Figure 21 reproduction: SM allocator scalability with respect to problem size.
//
// Paper setup (§8.4): a production ZippyDB snapshot — three LB metrics (storage, CPU, shard
// count), 20x shard-load spread, up to 20% capacity heterogeneity, 90% utilization threshold
// and 10% balance tolerance. Each run starts from a random shard-to-server assignment (an
// unusually large number of violations) at sizes 75K shards / 1K servers, 225K / 3K and
// 375K / 5K. Paper result: all violations fixed at every size; solve time grows 6.8x
// (30s -> 205s) for 5x problem size, i.e. mildly super-linear scaling.
//
// Output: the violations-over-time series per size (the Fig. 21 curves) plus a summary row per
// size. Absolute times differ from the paper's testbed; the reproduction target is the shape:
// every size converges to zero violations, and time grows mildly super-linearly with size.
//
// A second phase sweeps the parallel portfolio solver (starts=8, fixed eval budget) over
// thread counts on the mid-size problem and writes BENCH_solver_parallel.json into the working
// directory (shared schema, DESIGN.md §16). The sweep doubles as a determinism check: every
// thread count must produce the identical objective and violation count, or the rows are
// flagged and the process exits nonzero.

#include <iostream>

#include "bench/bench_util.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

// Thread-count sweep of the parallel portfolio on one problem size. Returns false if any
// thread count produced a different result than threads=1 (a determinism-contract violation).
bool RunParallelSweep(double scale) {
  PrintHeader("Parallel portfolio: thread-count sweep",
              "starts=8, fixed eval budget; identical results required at every thread count");

  ZippyProblemSpec spec;
  spec.servers = std::max(10, static_cast<int>(3000 * scale));
  spec.seed = 21;
  Rebalancer rb = MakeZippySpecs(spec);

  SolveOptions options;
  options.seed = 7;
  options.starts = 8;
  options.eval_budget = std::max<int64_t>(50000, static_cast<int64_t>(1500000 * scale));
  options.time_budget = Minutes(30);  // wall safety cap, never the binding budget
  options.trace_interval = 0;

  struct SweepRow {
    int threads = 0;
    double seconds = 0.0;
    double objective = 0.0;
    int64_t violations = 0;
    int64_t evaluations = 0;
    int winner_start = 0;
  };
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<SweepRow> rows;
  for (int threads : thread_counts) {
    options.threads = threads;
    SolverProblem problem = MakeZippyProblem(spec);  // fresh identical instance per run
    SolveResult result = rb.Solve(problem, options);
    rows.push_back({threads, ToSeconds(result.wall_time), result.final_objective,
                    result.final_violations.total(), result.evaluations, result.winner_start});
  }

  bool deterministic = true;
  TablePrinter table({"threads", "solve_seconds", "speedup", "objective", "violations",
                      "winner_start", "identical"});
  for (const SweepRow& row : rows) {
    bool same = row.objective == rows[0].objective && row.violations == rows[0].violations &&
                row.evaluations == rows[0].evaluations &&
                row.winner_start == rows[0].winner_start;
    deterministic = deterministic && same;
    table.AddRowValues(row.threads, FormatDouble(row.seconds, 3),
                       FormatDouble(row.seconds > 0 ? rows[0].seconds / row.seconds : 0.0, 2),
                       FormatDouble(row.objective, 3), row.violations, row.winner_start,
                       same ? "yes" : "NO");
  }
  table.Print(std::cout);

  BenchJson json("solver_parallel", scale);
  json.Measure("servers", spec.servers);
  json.Measure("shards", spec.servers * spec.shards_per_server);
  json.Measure("starts", options.starts);
  json.Measure("eval_budget", options.eval_budget);
  json.MeasureFlag("deterministic", deterministic);
  json.Require("deterministic");
  for (const SweepRow& row : rows) {
    const std::string point = "threads=" + std::to_string(row.threads) + "/";
    json.Measure(point + "solve_seconds", row.seconds);
    json.Measure(point + "speedup", row.seconds > 0 ? rows[0].seconds / row.seconds : 0.0);
    json.Measure(point + "objective", row.objective);
    json.Measure(point + "violations", row.violations);
    json.Measure(point + "evaluations", row.evaluations);
    json.Measure(point + "winner_start", row.winner_start);
    // Same scale and seed fix the trajectory: any drift is a solver change whose baseline
    // needs regenerating.
    for (const char* metric : {"objective", "violations"}) {
      json.Gate({.metric = point + metric, .direction = "equal", .tolerance = 0.0,
                 .same_scale = true});
    }
  }
  json.Write();
  if (!deterministic) {
    std::cout << "ERROR: results differ across thread counts — determinism contract broken\n";
  }
  return deterministic;
}

}  // namespace

int main() {
  PrintHeader("Fig 21: allocator scalability vs. problem size",
              "§8.4, Figure 21 — 75K/1K, 225K/3K, 375K/5K shards/servers; fix all violations");

  double scale = BenchScale();
  const int sizes[] = {static_cast<int>(1000 * scale), static_cast<int>(3000 * scale),
                       static_cast<int>(5000 * scale)};

  TablePrinter summary({"servers", "shards", "initial_violations", "final_violations",
                        "solve_seconds", "moves", "evaluations"});
  double first_time = 0.0;
  for (int servers : sizes) {
    ZippyProblemSpec spec;
    spec.servers = std::max(10, servers);
    spec.seed = 21;
    SolverProblem problem = MakeZippyProblem(spec);
    Rebalancer rb = MakeZippySpecs(spec);

    SolveOptions options;
    options.time_budget = Minutes(10);
    options.seed = 7;
    options.trace_interval = Millis(100);
    SolveResult result = rb.Solve(problem, options);

    std::cout << "-- " << spec.servers << " servers, "
              << spec.servers * spec.shards_per_server << " shards --\n";
    TablePrinter trace({"time_s", "violations", "moves"});
    for (const TracePoint& point : result.trace) {
      trace.AddRowValues(FormatDouble(ToSeconds(point.wall_elapsed), 3), point.violations,
                         point.moves_applied);
    }
    trace.Print(std::cout);
    std::cout << "\n";

    double seconds = ToSeconds(result.wall_time);
    if (first_time == 0.0) {
      first_time = seconds;
    }
    summary.AddRowValues(spec.servers, spec.servers * spec.shards_per_server,
                         result.initial_violations.total(), result.final_violations.total(),
                         FormatDouble(seconds, 3), result.moves.size(), result.evaluations);
  }
  std::cout << "Summary (paper: 30s -> 205s over 5x size growth, all violations fixed):\n";
  summary.Print(std::cout);

  return RunParallelSweep(scale) ? 0 : 1;
}
