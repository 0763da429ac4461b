#include "src/solver/local_search.h"

#include <algorithm>

#include "src/common/check.h"

namespace shardman {

namespace {
constexpr double kImproveEps = 1e-7;
// Hot-bin list refresh cadence, in applied moves.
constexpr int kHotRefreshMoves = 256;
// Applied moves between the tracker's scheduled exact-objective snaps (see Run()).
constexpr int64_t kObjectiveRecomputeMoves = 8192;
}  // namespace

LocalSearch::LocalSearch(SolverProblem* problem, const Rebalancer* specs,
                         const SolveOptions& options, ThreadPool* pool)
    : problem_(problem), specs_(specs), options_(options), tracker_(problem, specs),
      rng_(options.seed), pool_(pool) {}

TimeMicros LocalSearch::Elapsed() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count();
}

bool LocalSearch::BudgetExhausted(const Deadline& deadline) const {
  if (options_.move_budget > 0 && static_cast<int64_t>(moves_.size()) >= options_.move_budget) {
    return true;
  }
  // The deterministic budget: candidate evaluations are counted identically on every machine
  // and at every thread count, so a solve that stops here is reproducible.
  if (deadline.evals > 0 && evaluations_ >= deadline.evals) {
    return true;
  }
  // Wall clock is a safety cap only (runaway solves on oversubscribed machines); a solve whose
  // wall cap binds is not reproducible, which is why callers size the eval budget to bind first.
  return deadline.wall > 0 && Elapsed() >= deadline.wall;
}

void LocalSearch::RecordTrace(bool force) {
  if (options_.trace_interval <= 0) {
    return;
  }
  TimeMicros now = Elapsed();
  if (!force && last_trace_ >= 0 && now - last_trace_ < options_.trace_interval) {
    return;
  }
  last_trace_ = now;
  TracePoint point;
  point.wall_elapsed = now;
  point.moves_applied = static_cast<int64_t>(moves_.size());
  point.violations = tracker_.Count().total();
  point.objective = tracker_.objective();
  point.evaluations = evaluations_;
  trace_.push_back(point);
}

void LocalSearch::MarkGroupDirty(int entity) {
  if (!incremental_) {
    return;
  }
  int32_t group = problem_->entity_group[static_cast<size_t>(entity)];
  if (group >= 0) {
    dirty_groups_.Insert(group);
  }
}

void LocalSearch::ApplyAndRecord(int entity, int to) {
  SolverMove move;
  move.entity = entity;
  move.from = problem_->assignment[static_cast<size_t>(entity)];
  move.to = to;
  MarkGroupDirty(entity);
  tracker_.ApplyMove(entity, to);
  moves_.push_back(move);
  ++moves_since_refresh_;
  ClearFailed();
}

SolveResult LocalSearch::Run() {
  start_ = Clock::now();
  problem_->Validate();
  tracker_.Init();
  // Snap the tracked objective back to exact every kObjectiveRecomputeMoves applied moves:
  // PlaceUnavailable and the incremental refresh path can apply long move runs without a full
  // recompute. Objective-only (no average refresh) so the schedule can never alter move
  // decisions — deltas and averages are untouched; only the reported objective snaps back.
  tracker_.SetAutoRecompute(kObjectiveRecomputeMoves, /*scope_averages_too=*/false);

  // Dense equivalence classes over (quantized load vector, has-group, has-affinity).
  const int entities = problem_->num_entities();
  entity_class_.assign(static_cast<size_t>(entities), 0);
  int32_t num_classes = entities;
  if (options_.equivalence_classes) {
    // Dense ids in first-seen order of the class hashes.
    class_ids_.Reset(static_cast<size_t>(entities));
    int32_t next_class = 0;
    for (int e = 0; e < entities; ++e) {
      uint64_t h = 1469598103934665603ULL;
      for (int m = 0; m < problem_->num_metrics; ++m) {
        auto q = static_cast<int64_t>(problem_->load(e, m) * 1e6);
        h = (h ^ static_cast<uint64_t>(q)) * 1099511628211ULL;
      }
      int32_t g = problem_->entity_group[static_cast<size_t>(e)];
      // Grouped entities interact through spread/affinity; only ungrouped ones are freely
      // interchangeable, so fold the group id into the key for grouped entities.
      h = (h ^ static_cast<uint64_t>(g < 0 ? -1 : g)) * 1099511628211ULL;
      const int32_t cls = class_ids_.FindOrInsert(static_cast<int64_t>(h), next_class);
      next_class += cls == next_class ? 1 : 0;
      entity_class_[static_cast<size_t>(e)] = cls;
    }
    num_classes = next_class;
  } else {
    for (int e = 0; e < entities; ++e) {
      entity_class_[static_cast<size_t>(e)] = e;  // every entity its own class: no skipping
    }
  }
  class_fail_gen_.assign(static_cast<size_t>(num_classes), 0);
  class_fail_bin_.assign(static_cast<size_t>(num_classes), -1);
  fail_gen_ = 1;

  SolveResult result;
  result.initial_violations = tracker_.Count();

  // Warm-started incremental repair: size the dirty neighborhoods of the incoming assignment
  // and run restricted refresh scans when they are small; a mostly-dirty problem (or an
  // emergency placement run, which never refreshes) falls back to the full solve.
  if (options_.incremental && !options_.emergency) {
    DirtySeed seed = BuildDirtySeed(*problem_, tracker_, pool_);
    result.dirty_entities = seed.dirty_entities;
    result.dirty_bins = seed.dirty_bins;
    if (seed.dirty_fraction <= options_.dirty_fallback_fraction) {
      incremental_ = true;
      result.incremental_used = true;
      dirty_groups_.Reset(tracker_.num_groups());
      for (int32_t g : seed.dirty_groups) {
        dirty_groups_.Insert(g);
      }
    }
  }
  RecordTrace(/*force=*/true);

  const Deadline budget{options_.time_budget, options_.eval_budget};
  if (options_.emergency) {
    PlaceUnavailable(budget);
  } else if (options_.goal_batching) {
    // Earlier (higher-priority) batches get larger shares of the budget; unused budget rolls
    // forward because each batch's deadline is absolute. Both the deterministic eval budget and
    // the wall safety cap are split by the same fractions.
    const Batch batches[] = {
        {kGoalHard, 0.35},
        {kGoalDrain, 0.10},
        {kGoalGroup, 0.25},
        {kGoalLoad, 0.30},
    };
    double consumed_fraction = 0.0;
    for (const Batch& batch : batches) {
      consumed_fraction += batch.budget_fraction;
      Deadline deadline;
      deadline.wall =
          budget.wall > 0
              ? static_cast<TimeMicros>(static_cast<double>(budget.wall) * consumed_fraction)
              : 0;
      deadline.evals =
          budget.evals > 0
              ? static_cast<int64_t>(static_cast<double>(budget.evals) * consumed_fraction)
              : 0;
      if ((batch.mask & kGoalHard) != 0) {
        PlaceUnavailable(deadline);
      }
      RunBatch(batch.mask, deadline);
      if (BudgetExhausted(budget)) {
        converged_ = false;  // the run was cut short, whatever the last batch reported
        break;
      }
    }
  } else {
    PlaceUnavailable(budget);
    RunBatch(kGoalAll, budget);
  }

  // Snap the final objective to exact: incremental mode never recomputed it mid-run, and even
  // full mode carries delta drift since its last refresh. An exact final value makes the
  // portfolio reduction compare true objectives and makes incremental == full bit-for-bit.
  tracker_.RecomputeAll();
  RecordTrace(/*force=*/true);
  result.moves = std::move(moves_);
  result.final_violations = tracker_.Count();
  result.final_objective = tracker_.objective();
  result.wall_time = Elapsed();
  result.evaluations = evaluations_;
  result.trace = std::move(trace_);
  result.converged = converged_;
  return result;
}

void LocalSearch::PlaceUnavailable(const Deadline& deadline) {
  std::vector<int32_t> pending = tracker_.UnavailableEntities();
  if (pending.empty()) {
    return;
  }
  // Largest-first placement (first-fit-decreasing): big entities claim space while every bin
  // still has headroom, which makes tight packings succeed where random order fails.
  std::sort(pending.begin(), pending.end(), [this](int32_t a, int32_t b) {
    return tracker_.EntitySize(a) > tracker_.EntitySize(b);
  });

  // Build the live-bin list once; feasibility is rechecked per placement.
  std::vector<int32_t> live;
  for (int b = 0; b < problem_->num_bins(); ++b) {
    if (problem_->bin_alive[static_cast<size_t>(b)] != 0) {
      live.push_back(b);
    }
  }
  if (live.empty()) {
    return;
  }

  for (int32_t entity : pending) {
    if (BudgetExhausted(deadline)) {
      return;
    }
    // Sample a handful of feasible bins and take the least-utilized one: fast, spreads the
    // failed server's entities across many targets (parallel shard failover, §5.1 goal 7).
    int best = -1;
    double best_util = 0.0;
    const int samples = std::max(4, options_.candidates_per_entity);
    for (int k = 0; k < samples; ++k) {
      int32_t bin = rng_.Pick(live);
      ++evaluations_;
      if (!tracker_.FitsHard(entity, bin) || tracker_.GroupColocated(entity, bin)) {
        continue;
      }
      double util = tracker_.BinMaxUtilization(bin);
      if (best < 0 || util < best_util) {
        best = bin;
        best_util = util;
      }
    }
    if (best < 0) {
      // Dense cluster: fall back to scanning for any feasible bin, preferring non-colocated.
      for (int32_t bin : live) {
        if (!tracker_.FitsHard(entity, bin)) {
          continue;
        }
        if (!tracker_.GroupColocated(entity, bin)) {
          best = bin;
          break;
        }
        if (best < 0) {
          best = bin;  // colocated last resort: availability beats spread
        }
      }
    }
    if (best >= 0) {
      ApplyAndRecord(entity, best);
    }
    RecordTrace(/*force=*/false);
  }
}

void LocalSearch::RefreshStructures(uint32_t mask) {
  if (incremental_) {
    // Restricted refresh: averages from the O(bins) load sums, group penalties only for the
    // dirty groups. Exact — every group with nonzero penalty is dirty (seeded from the initial
    // violations, grown on every applied move), and the ascending scatter order matches the
    // full scan's — so the hot-bin list comes out bit-identical to a full refresh. The
    // O(entities + groups) exact-objective pass is skipped, so the tracked objective is not
    // re-snapped when the averages move: until the next scheduled recompute it is off by the
    // shift in averages as well as by FP drift. No decision reads it (moves read deltas only),
    // and Run() snaps it to exact at the end.
    tracker_.RecomputeScopeAverages();
    scan_groups_.assign(dirty_groups_.items().begin(), dirty_groups_.items().end());
    std::sort(scan_groups_.begin(), scan_groups_.end());
    bin_penalty_ = tracker_.ComputeBinPenalties(mask, pool_, &scan_groups_);
  } else {
    tracker_.RecomputeAll();
    bin_penalty_ = tracker_.ComputeBinPenalties(mask, pool_);
  }

  hot_bins_.clear();
  for (int b = 0; b < problem_->num_bins(); ++b) {
    if (bin_penalty_[static_cast<size_t>(b)] > kImproveEps) {
      hot_bins_.push_back(b);
    }
  }
  std::sort(hot_bins_.begin(), hot_bins_.end(), [this](int32_t a, int32_t b) {
    return bin_penalty_[static_cast<size_t>(a)] > bin_penalty_[static_cast<size_t>(b)];
  });

  all_live_bins_.clear();
  region_cold_bins_.assign(static_cast<size_t>(std::max(1, problem_->num_regions)), {});
  for (int b = 0; b < problem_->num_bins(); ++b) {
    if (problem_->bin_alive[static_cast<size_t>(b)] == 0) {
      continue;
    }
    all_live_bins_.push_back(b);
    region_cold_bins_[static_cast<size_t>(problem_->bin_region[static_cast<size_t>(b)])]
        .push_back(b);
  }
  // The per-region sorts are independent (disjoint vectors, read-only comparator), so sharding
  // them across the pool cannot change the sorted output — wall time only.
  auto sort_region = [this](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      std::vector<int32_t>& bins = region_cold_bins_[static_cast<size_t>(r)];
      std::sort(bins.begin(), bins.end(), [this](int32_t a, int32_t b) {
        return tracker_.BinMaxUtilization(a) < tracker_.BinMaxUtilization(b);
      });
    }
  };
  const int64_t regions = static_cast<int64_t>(region_cold_bins_.size());
  if (pool_ != nullptr && pool_->threads() > 1 && all_live_bins_.size() >= 2048) {
    pool_->ParallelFor(0, regions, 1, sort_region);
  } else {
    sort_region(0, regions);
  }
  moves_since_refresh_ = 0;
}

void LocalSearch::RunBatch(uint32_t mask, const Deadline& deadline) {
  // `converged_` reflects whether the *latest* batch ran out of improving moves; a batch that
  // exits on its budget clears the flag so a stale true from an earlier batch cannot leak into
  // the result when the overall budget cuts the run short.
  converged_ = false;
  while (true) {
    RefreshStructures(mask);
    RecordTrace(/*force=*/true);
    if (hot_bins_.empty()) {
      converged_ = true;
      return;
    }
    int applied_this_round = 0;
    for (int32_t bin : hot_bins_) {
      if (BudgetExhausted(deadline)) {
        return;
      }
      bool improved = TryImproveBin(bin, mask, deadline);
      if (!improved && options_.enable_swaps) {
        improved = TrySwap(bin);
      }
      if (improved) {
        ++applied_this_round;
      }
      RecordTrace(/*force=*/false);
      if (moves_since_refresh_ >= kHotRefreshMoves) {
        break;
      }
    }
    if (applied_this_round == 0) {
      converged_ = true;
      return;
    }
  }
}

int LocalSearch::SampleCandidate(int entity) {
  if (all_live_bins_.empty()) {
    return -1;
  }
  if (!options_.stratified_sampling) {
    return rng_.Pick(all_live_bins_);
  }

  // Stratified sampling (§5.3): prefer the region(s) where the entity's group has an affinity
  // deficit; otherwise pick a region uniformly. Within the region, sample from the coldest
  // half of its bins.
  int32_t region = -1;
  int32_t group = problem_->entity_group[static_cast<size_t>(entity)];
  if (group >= 0) {
    std::vector<int32_t> deficits = tracker_.GroupAffinityDeficitRegions(group);
    if (!deficits.empty() && rng_.Bernoulli(0.75)) {
      region = rng_.Pick(deficits);
    } else if (deficits.empty() && rng_.Bernoulli(0.6)) {
      // The group is placement-satisfied: load moves that keep affinity/spread intact must stay
      // in the entity's current region, so bias sampling there.
      int32_t current = problem_->assignment[static_cast<size_t>(entity)];
      if (current >= 0) {
        region = problem_->bin_region[static_cast<size_t>(current)];
      }
    }
  }
  if (region < 0) {
    region = static_cast<int32_t>(
        rng_.UniformInt(0, static_cast<int64_t>(region_cold_bins_.size()) - 1));
  }
  const std::vector<int32_t>& bins = region_cold_bins_[static_cast<size_t>(region)];
  if (bins.empty()) {
    return rng_.Pick(all_live_bins_);
  }
  // Mostly sample from the coldest half, but keep some full-range probability so small or
  // skewed regions are never starved of candidates.
  size_t limit = bins.size();
  if (bins.size() > 2 && rng_.Bernoulli(0.75)) {
    limit = std::max<size_t>(1, bins.size() / 2);
  }
  return bins[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(limit) - 1))];
}

bool LocalSearch::TryImproveBin(int bin, uint32_t mask, const Deadline& deadline) {
  const std::vector<int32_t>& on_bin = tracker_.bin_entities(bin);
  std::vector<int32_t>& entities = visit_;
  entities.assign(on_bin.begin(), on_bin.end());
  if (entities.empty()) {
    return false;
  }
  // Order entities by how much moving them could help the current goal batch. In group-goal
  // batches the violating entities are usually small, so group penalty dominates the key;
  // within equal group penalty, large-shards-first (§5.3) breaks ties.
  if (options_.large_shards_first) {
    const bool group_batch = (mask & kGoalGroup) != 0;
    std::sort(entities.begin(), entities.end(), [this, group_batch](int32_t a, int32_t b) {
      if (group_batch) {
        double ga = tracker_.GroupPenaltyOf(problem_->entity_group[static_cast<size_t>(a)]);
        double gb = tracker_.GroupPenaltyOf(problem_->entity_group[static_cast<size_t>(b)]);
        if (ga != gb) {
          return ga > gb;
        }
      }
      return tracker_.EntitySize(a) > tracker_.EntitySize(b);
    });
    // Keep the ordering from being a blind spot: the first half of the visit budget goes to
    // the top-priority entities, the rest to uniformly sampled others, so a bin whose largest
    // entities are immovable still makes progress.
    size_t limit = static_cast<size_t>(std::max(1, options_.entities_per_bin_visit));
    if (entities.size() > limit) {
      size_t keep = limit / 2 + 1;
      for (size_t i = keep; i < limit; ++i) {
        size_t j = static_cast<size_t>(
            rng_.UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(entities.size()) - 1));
        std::swap(entities[i], entities[j]);
      }
    }
  } else {
    rng_.Shuffle(entities);
  }

  int best_entity = -1;
  int best_target = -1;
  double best_delta = -kImproveEps;
  int considered = 0;
  for (int32_t entity : entities) {
    if (considered >= options_.entities_per_bin_visit) {
      break;
    }
    int32_t cls = entity_class_[static_cast<size_t>(entity)];
    if (options_.equivalence_classes && ClassFailed(cls, bin)) {
      continue;  // An equivalent entity already failed to find an improving move from here.
    }
    ++considered;
    bool improved_any = false;
    for (int k = 0; k < options_.candidates_per_entity; ++k) {
      int target = SampleCandidate(entity);
      if (target < 0 || target == bin || tracker_.GroupColocated(entity, target)) {
        continue;
      }
      ++evaluations_;
      double delta = tracker_.MoveDelta(entity, target);
      if (delta < best_delta) {
        best_delta = delta;
        best_entity = entity;
        best_target = target;
        improved_any = true;
      }
    }
    if (!improved_any && options_.equivalence_classes) {
      MarkClassFailed(cls, bin);
    }
  }
  if (best_entity >= 0) {
    ApplyAndRecord(best_entity, best_target);
    return true;
  }
  return false;
}

bool LocalSearch::TrySwap(int bin) {
  const std::vector<int32_t>& entities = tracker_.bin_entities(bin);
  if (entities.empty()) {
    return false;
  }
  // Largest entity on the hot bin.
  int32_t big = entities[0];
  for (int32_t e : entities) {
    if (tracker_.EntitySize(e) > tracker_.EntitySize(big)) {
      big = e;
    }
  }
  const int attempts = 4;
  for (int k = 0; k < attempts; ++k) {
    int target = SampleCandidate(big);
    if (target < 0 || target == bin) {
      continue;
    }
    const std::vector<int32_t>& target_entities = tracker_.bin_entities(target);
    if (target_entities.empty()) {
      continue;
    }
    // Smallest entity on the target.
    int32_t small = target_entities[0];
    for (int32_t e : target_entities) {
      if (tracker_.EntitySize(e) < tracker_.EntitySize(small)) {
        small = e;
      }
    }
    if (small == big) {
      continue;
    }
    if (tracker_.GroupColocated(big, target) || tracker_.GroupColocated(small, bin)) {
      continue;
    }
    evaluations_ += 2;
    double d1 = tracker_.MoveDelta(big, target);
    tracker_.ApplyMove(big, target);
    double d2 = tracker_.MoveDelta(small, bin);
    if (d1 + d2 < -kImproveEps) {
      // Accept: record both halves.
      SolverMove move1{big, bin, target};
      moves_.push_back(move1);
      MarkGroupDirty(big);
      MarkGroupDirty(small);
      tracker_.ApplyMove(small, bin);
      SolverMove move2{small, target, bin};
      moves_.push_back(move2);
      moves_since_refresh_ += 2;
      ClearFailed();
      return true;
    }
    // Revert the tentative first half.
    tracker_.ApplyMove(big, bin);
  }
  return false;
}

}  // namespace shardman
