// Warm-started incremental repair (DESIGN.md §14):
//   * incremental repair produces byte-identical results to the full solver (the restricted
//     refresh scans are exact under the dirty-group invariant);
//   * a dirty fraction above the fallback threshold reverts to the full solve;
//   * results stay byte-identical across thread counts {1, 2, 8} and across repeated warm
//     rounds;
//   * a warm repair is a pure function of its seed and its move log replays to the final
//     assignment;
//   * the tracker's incremental objective stays within the drift tolerance over 100k moves.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/incremental.h"
#include "src/solver/rebalancer.h"
#include "src/solver/violation_tracker.h"

namespace shardman {
namespace {

SolverProblem RandomProblem(uint64_t seed, int bins, int entities, int groups) {
  Rng rng(seed);
  SolverProblem p;
  for (int b = 0; b < bins; ++b) {
    p.AddBin({rng.Uniform(80, 120), rng.Uniform(80, 120)}, b % 4, b % 8, b / 2);
  }
  for (int e = 0; e < entities; ++e) {
    p.AddEntity({rng.Uniform(1, 8), rng.Uniform(1, 8)}, groups > 0 ? e % groups : -1,
                static_cast<int32_t>(rng.UniformInt(0, bins - 1)));
  }
  return p;
}

Rebalancer Specs() {
  Rebalancer rb;
  for (int m = 0; m < 2; ++m) {
    rb.AddConstraint(CapacitySpec{m, 1.0});
    rb.AddGoal(ThresholdSpec{m, 0.85}, 2000.0);
    rb.AddGoal(BalanceSpec{DomainScope::kGlobal, m, 0.10}, 1000.0);
  }
  rb.AddGoal(ExclusionSpec{DomainScope::kRegion}, 30000.0);
  AffinitySpec affinity;
  for (int g = 0; g < 40; g += 3) {
    affinity.entries.push_back(AffinityEntry{g, g % 4, 1, 1.0});
  }
  rb.AddGoal(affinity, 100000.0);
  rb.AddGoal(DrainSpec{}, 4000.0);
  return rb;
}

// A "previous round": solve the random problem to rest, then perturb it the way production
// rounds do — kill a bin (unassigning its entities), drain one, shift some loads.
SolverProblem WarmProblem(uint64_t seed, int bins, int entities, int groups,
                          const Rebalancer& rb) {
  SolverProblem p = RandomProblem(seed, bins, entities, groups);
  SolveOptions options;
  options.seed = 17;
  options.eval_budget = 60000;
  options.trace_interval = 0;
  rb.Solve(p, options);

  Rng rng(seed ^ 0xfeed);
  int dead = static_cast<int>(rng.UniformInt(0, bins - 1));
  p.bin_alive[static_cast<size_t>(dead)] = 0;
  int draining = (dead + 1) % bins;
  p.bin_draining[static_cast<size_t>(draining)] = 1;
  for (int i = 0; i < entities / 50; ++i) {
    int e = static_cast<int>(rng.UniformInt(0, entities - 1));
    p.entity_load[static_cast<size_t>(e) * 2] *= rng.Uniform(0.5, 2.5);
  }
  for (int e = 0; e < entities; ++e) {
    if (p.assignment[static_cast<size_t>(e)] == dead) {
      p.assignment[static_cast<size_t>(e)] = -1;
    }
  }
  return p;
}

void ExpectIdentical(const SolveResult& a, const SolveResult& b, const std::string& label) {
  ASSERT_EQ(a.moves.size(), b.moves.size()) << label;
  for (size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].entity, b.moves[i].entity) << label << " move " << i;
    EXPECT_EQ(a.moves[i].from, b.moves[i].from) << label << " move " << i;
    EXPECT_EQ(a.moves[i].to, b.moves[i].to) << label << " move " << i;
  }
  // Exact double equality on purpose: the contract is bit-identity, not approximation.
  EXPECT_EQ(a.final_objective, b.final_objective) << label;
  EXPECT_EQ(a.final_violations.total(), b.final_violations.total()) << label;
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(GenStampSetTest, InsertContainsClearSemantics) {
  GenStampSet set;
  set.Reset(16);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));  // second insert of the same item is a no-op
  EXPECT_TRUE(set.Insert(7));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_EQ(set.size(), 2u);
  ASSERT_EQ(set.items().size(), 2u);

  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));  // insertable again after the O(1) clear
  EXPECT_EQ(set.size(), 1u);

  set.Reset(4);  // shrinking reset drops all state
  EXPECT_EQ(set.universe(), 4);
  EXPECT_FALSE(set.Contains(3));
}

TEST(SolverIncrementalTest, IncrementalRepairMatchesFullSolveExactly) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 42;
  options.eval_budget = 30000;
  options.trace_interval = 0;

  SolverProblem full_p = WarmProblem(7, 48, 960, 120, rb);
  SolverProblem incr_p = full_p;

  options.incremental = false;
  SolveResult full = rb.Solve(full_p, options);

  options.incremental = true;
  // Force the incremental mode on regardless of the measured dirty fraction: the restricted
  // scans are exact at any fraction, so parity must hold even when the whole fleet is dirty.
  options.dirty_fallback_fraction = 1.0;
  SolveResult incr = rb.Solve(incr_p, options);

  // The restricted refresh scans are exact, so this holds always — not only when the dirty
  // set covers every violation.
  EXPECT_TRUE(incr.incremental_used);
  EXPECT_GT(incr.dirty_entities, 0);
  ExpectIdentical(full, incr, "incremental vs full");
  EXPECT_EQ(full_p.assignment, incr_p.assignment);
}

TEST(SolverIncrementalTest, FallsBackToFullSolveWhenMostOfTheFleetIsDirty) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 5;
  options.eval_budget = 20000;
  options.trace_interval = 0;
  options.incremental = true;

  // A random assignment leaves most bins violating, far past the fallback threshold.
  SolverProblem chaos = RandomProblem(21, 32, 640, 80);
  SolveResult result = rb.Solve(chaos, options);
  EXPECT_FALSE(result.incremental_used);
  EXPECT_GT(result.dirty_entities, 0);  // the dirty seed was still measured
  EXPECT_GT(result.dirty_bins, 0);

  // And the fallback is exactly the non-incremental solver.
  SolverProblem plain = RandomProblem(21, 32, 640, 80);
  options.incremental = false;
  SolveResult base = rb.Solve(plain, options);
  ExpectIdentical(base, result, "fallback vs plain full solve");
  EXPECT_EQ(chaos.assignment, plain.assignment);
}

TEST(SolverIncrementalTest, IncrementalIsByteIdenticalAcrossThreadCounts) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 9;
  options.eval_budget = 25000;
  options.trace_interval = 0;
  options.incremental = true;

  // Large enough to cross the sharded-scan thresholds with several threads.
  std::vector<int> thread_counts = {1, 2, 8};
  std::vector<SolveResult> results;
  std::vector<SolverProblem> problems;
  for (int threads : thread_counts) {
    options.threads = threads;
    options.starts = 2;
    problems.push_back(WarmProblem(11, 4600, 9200, 3000, rb));
    results.push_back(rb.Solve(problems.back(), options));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectIdentical(results[0], results[i],
                    "threads=" + std::to_string(thread_counts[i]) + " vs threads=1");
    EXPECT_EQ(problems[0].assignment, problems[i].assignment)
        << "assignment differs at threads=" << thread_counts[i];
  }
}

TEST(SolverIncrementalTest, RepeatedWarmRoundsStayIdentical) {
  // Two full warm rounds (solve, perturb, repair) executed twice from scratch must agree move
  // for move: the warm pipeline adds no hidden nondeterminism.
  Rebalancer rb = Specs();
  auto run_rounds = [&rb]() {
    SolverProblem p = WarmProblem(31, 48, 960, 120, rb);
    SolveOptions options;
    options.seed = 77;
    options.eval_budget = 15000;
    options.trace_interval = 0;
    options.incremental = true;
    SolveResult first = rb.Solve(p, options);
    // Second round: drain another bin and repair again from the repaired state.
    p.bin_draining[5] = 1;
    SolveResult second = rb.Solve(p, options);
    return std::make_pair(p.assignment, std::make_pair(first.evaluations, second.evaluations));
  };
  auto a = run_rounds();
  auto b = run_rounds();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SolverIncrementalTest, WarmRepairIsDeterministicPerSeedAndReplaysToFinalAssignment) {
  Rebalancer rb = Specs();
  SolveOptions options;
  options.seed = 55;
  options.eval_budget = 12000;
  options.trace_interval = 0;
  options.incremental = true;
  // Rack closure dirties most of a 48-bin fleet; force the restricted scans on anyway.
  options.dirty_fallback_fraction = 1.0;

  SolverProblem p1 = WarmProblem(41, 48, 960, 120, rb);
  SolverProblem replay_base = p1;  // pre-solve state, for the move replay below
  SolveResult r1 = rb.Solve(p1, options);
  EXPECT_TRUE(r1.incremental_used);
  EXPECT_FALSE(r1.moves.empty());

  SolverProblem p2 = WarmProblem(41, 48, 960, 120, rb);
  SolveResult r2 = rb.Solve(p2, options);

  ExpectIdentical(r1, r2, "warm repair same seed");
  EXPECT_EQ(p1.assignment, p2.assignment);

  // The move log replays to the final assignment: every applied move (swap halves included),
  // in order, each starting from where the previous moves left its entity.
  for (const SolverMove& move : r1.moves) {
    ASSERT_GE(move.entity, 0);
    ASSERT_LT(move.entity, replay_base.num_entities());
    EXPECT_EQ(replay_base.assignment[static_cast<size_t>(move.entity)], move.from)
        << "move log out of sequence";
    replay_base.assignment[static_cast<size_t>(move.entity)] = move.to;
  }
  EXPECT_EQ(replay_base.assignment, p1.assignment);
}

TEST(ViolationTrackerTest, IncrementalObjectiveDriftStaysBoundedOver100kMoves) {
  SolverProblem p = RandomProblem(3, 64, 1280, 160);
  Rebalancer rb = Specs();
  ViolationTracker tracker(&p, &rb);
  tracker.Init();
  // Auto-recompute every 4096 applied moves with the drift assertion armed: a drift above the
  // tolerance aborts the test via SM_CHECK.
  tracker.SetAutoRecompute(4096, /*scope_averages_too=*/true);
  tracker.SetDriftCheck(true, /*tolerance=*/1e-4);

  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    int entity = static_cast<int>(rng.UniformInt(0, p.num_entities() - 1));
    int bin = static_cast<int>(rng.UniformInt(0, p.num_bins() - 1));
    if (bin == p.assignment[static_cast<size_t>(entity)]) {
      continue;
    }
    tracker.ApplyMove(entity, bin);
  }
  EXPECT_GT(tracker.applied_moves(), 90000);
  // Drift since the last auto-recompute is itself bounded.
  EXPECT_LE(tracker.MeasureDrift(), 1e-4);
}

}  // namespace
}  // namespace shardman
