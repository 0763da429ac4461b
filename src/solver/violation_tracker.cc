#include "src/solver/violation_tracker.h"

#include <algorithm>
#include <cmath>

namespace shardman {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

ViolationTracker::ViolationTracker(SolverProblem* problem, const Rebalancer* specs)
    : problem_(problem), specs_(specs), metrics_(problem->num_metrics) {
  SM_CHECK(problem != nullptr);
  SM_CHECK(specs != nullptr);
}

void ViolationTracker::Init() {
  const int bins = problem_->num_bins();
  const int entities = problem_->num_entities();

  bin_load_.assign(static_cast<size_t>(bins) * static_cast<size_t>(metrics_), 0.0);
  bin_entities_.assign(static_cast<size_t>(bins), {});

  // Counting pass: group sizes into the CSR offsets, bin sizes to reserve each bin's list.
  int32_t max_group = -1;
  for (int e = 0; e < entities; ++e) {
    max_group = std::max(max_group, problem_->entity_group[static_cast<size_t>(e)]);
  }
  group_offsets_.assign(static_cast<size_t>(max_group) + 2, 0);
  std::vector<int32_t> bin_sizes(static_cast<size_t>(bins), 0);
  for (int e = 0; e < entities; ++e) {
    int32_t g = problem_->entity_group[static_cast<size_t>(e)];
    if (g >= 0) {
      ++group_offsets_[static_cast<size_t>(g) + 1];
    }
    int32_t b = problem_->assignment[static_cast<size_t>(e)];
    if (b >= 0) {
      ++bin_sizes[static_cast<size_t>(b)];
    }
  }
  for (size_t g = 1; g < group_offsets_.size(); ++g) {
    group_offsets_[g] += group_offsets_[g - 1];
  }
  for (int b = 0; b < bins; ++b) {
    bin_entities_[static_cast<size_t>(b)].reserve(
        static_cast<size_t>(bin_sizes[static_cast<size_t>(b)]));
  }
  group_entities_.resize(static_cast<size_t>(group_offsets_.back()));
  std::vector<int32_t> group_fill(group_offsets_.begin(), group_offsets_.end() - 1);

  for (int e = 0; e < entities; ++e) {
    int32_t g = problem_->entity_group[static_cast<size_t>(e)];
    if (g >= 0) {
      group_entities_[static_cast<size_t>(group_fill[static_cast<size_t>(g)]++)] = e;
    }
    int32_t b = problem_->assignment[static_cast<size_t>(e)];
    if (b >= 0) {
      bin_entities_[static_cast<size_t>(b)].push_back(e);
      for (int m = 0; m < metrics_; ++m) {
        bin_load_[static_cast<size_t>(b) * static_cast<size_t>(metrics_) +
                  static_cast<size_t>(m)] += problem_->load(e, m);
      }
    }
  }

  group_affinity_.clear();
  for (const AffinityEntry& entry : specs_->affinities()) {
    group_affinity_[entry.group].push_back(entry);
  }

  // Per-metric hard capacity limit (tightest spec wins).
  capacity_limit_.assign(static_cast<size_t>(metrics_), -1.0);
  for (const CapacitySpec& spec : specs_->capacities()) {
    SM_CHECK_GE(spec.metric, 0);
    SM_CHECK_LT(spec.metric, metrics_);
    double& limit = capacity_limit_[static_cast<size_t>(spec.metric)];
    if (limit < 0 || spec.limit_fraction < limit) {
      limit = spec.limit_fraction;
    }
  }

  balance_states_.clear();
  for (const auto& [spec, weight] : specs_->balances()) {
    BalanceState state;
    state.spec = spec;
    state.weight = weight;
    balance_states_.push_back(std::move(state));
  }

  // Normalized entity size: sum over metrics of load / mean-bin-capacity.
  std::vector<double> mean_cap(static_cast<size_t>(metrics_), 0.0);
  for (int b = 0; b < bins; ++b) {
    for (int m = 0; m < metrics_; ++m) {
      mean_cap[static_cast<size_t>(m)] += problem_->capacity(b, m);
    }
  }
  for (int m = 0; m < metrics_; ++m) {
    mean_cap[static_cast<size_t>(m)] =
        std::max(kEps, mean_cap[static_cast<size_t>(m)] / std::max(1, bins));
  }
  entity_size_.assign(static_cast<size_t>(entities), 0.0);
  for (int e = 0; e < entities; ++e) {
    double size = 0.0;
    for (int m = 0; m < metrics_; ++m) {
      size += problem_->load(e, m) / mean_cap[static_cast<size_t>(m)];
    }
    entity_size_[static_cast<size_t>(e)] = size;
  }

  applied_moves_ = 0;
  moves_since_recompute_ = 0;
  RecomputeAll();
}

double ViolationTracker::BinUtilization(int bin, int m) const {
  double cap = problem_->capacity(bin, m);
  if (cap <= kEps) {
    return bin_load(bin, m) > kEps ? 1e9 : 0.0;
  }
  return bin_load(bin, m) / cap;
}

double ViolationTracker::BinMaxUtilization(int bin) const {
  double u = 0.0;
  for (int m = 0; m < metrics_; ++m) {
    u = std::max(u, BinUtilization(bin, m));
  }
  return u;
}

bool ViolationTracker::FitsHard(int entity, int bin) const {
  if (!BinLive(bin)) {
    return false;
  }
  for (int m = 0; m < metrics_; ++m) {
    double limit = capacity_limit_[static_cast<size_t>(m)];
    if (limit < 0) {
      continue;
    }
    double cap = problem_->capacity(bin, m);
    if (bin_load(bin, m) + problem_->load(entity, m) > cap * limit + kEps) {
      return false;
    }
  }
  return true;
}

bool ViolationTracker::GroupColocated(int entity, int bin) const {
  int32_t group = problem_->entity_group[static_cast<size_t>(entity)];
  if (group < 0) {
    return false;
  }
  for (int32_t member : GroupMembers(group)) {
    if (member != entity && problem_->assignment[static_cast<size_t>(member)] == bin) {
      return true;
    }
  }
  return false;
}

std::span<const int32_t> ViolationTracker::GroupMembers(int32_t group) const {
  if (group < 0 || group >= num_groups()) {
    return {};
  }
  const int32_t* base = group_entities_.data();
  return {base + group_offsets_[static_cast<size_t>(group)],
          base + group_offsets_[static_cast<size_t>(group) + 1]};
}

std::vector<int32_t> ViolationTracker::GroupAffinityDeficitRegions(int32_t group) const {
  std::vector<int32_t> out;
  auto it = group_affinity_.find(group);
  if (it == group_affinity_.end()) {
    return out;
  }
  for (const AffinityEntry& entry : it->second) {
    int count = 0;
    for (int32_t member : GroupMembers(group)) {
      int32_t b = problem_->assignment[static_cast<size_t>(member)];
      if (BinLive(b) && problem_->bin_region[static_cast<size_t>(b)] == entry.region) {
        ++count;
      }
    }
    if (count < entry.min_count) {
      out.push_back(entry.region);
    }
  }
  return out;
}

double ViolationTracker::BinMetricPenalty(int bin, int m, double load, uint32_t mask) const {
  double cap = problem_->capacity(bin, m);
  double util;
  if (cap <= kEps) {
    util = load > kEps ? 1e6 : 0.0;
  } else {
    util = load / cap;
  }
  double pen = 0.0;
  if ((mask & kGoalHard) != 0) {
    double limit = capacity_limit_[static_cast<size_t>(m)];
    if (limit >= 0 && util > limit) {
      pen += kCapacityWeight * (util - limit);
    }
  }
  if ((mask & kGoalLoad) != 0) {
    for (const auto& [spec, weight] : specs_->thresholds()) {
      if (spec.metric == m && util > spec.threshold) {
        pen += weight * (util - spec.threshold);
      }
    }
    for (const BalanceState& state : balance_states_) {
      if (state.spec.metric != m || state.avg_util.empty()) {
        continue;
      }
      int32_t dom = problem_->DomainOf(bin, state.spec.scope);
      double bound = state.avg_util[static_cast<size_t>(dom)] + state.spec.tolerance;
      if (util > bound) {
        pen += state.weight * (util - bound);
      }
    }
  }
  return pen;
}

double ViolationTracker::BinLoadPenalty(int bin, uint32_t mask) const {
  double pen = 0.0;
  for (int m = 0; m < metrics_; ++m) {
    pen += BinMetricPenalty(bin, m, bin_load(bin, m), mask);
  }
  return pen;
}

double ViolationTracker::GroupPenalty(int32_t group, int moved_entity, int to) const {
  if (group < 0) {
    return 0.0;
  }
  const std::span<const int32_t> members = GroupMembers(group);
  double pen = 0.0;

  auto bin_of = [&](int32_t member) -> int32_t {
    if (member == moved_entity) {
      return to;
    }
    return problem_->assignment[static_cast<size_t>(member)];
  };

  // Affinity shortfalls.
  auto aff_it = group_affinity_.find(group);
  if (aff_it != group_affinity_.end()) {
    for (const AffinityEntry& entry : aff_it->second) {
      int count = 0;
      for (int32_t member : members) {
        int32_t b = bin_of(member);
        if (BinLive(b) && problem_->bin_region[static_cast<size_t>(b)] == entry.region) {
          ++count;
        }
      }
      if (count < entry.min_count) {
        pen += entry.weight * (entry.min_count - count);
      }
    }
  }

  // Exclusion (spread) co-locations: members in the same scope domain beyond the first.
  for (const auto& [spec, weight] : specs_->exclusions()) {
    // Replication factors are small; quadratic over members is cheap.
    double colocated = 0.0;
    for (size_t i = 0; i < members.size(); ++i) {
      int32_t bi = bin_of(members[i]);
      if (!BinLive(bi)) {
        continue;
      }
      int32_t di = problem_->DomainOf(bi, spec.scope);
      for (size_t j = i + 1; j < members.size(); ++j) {
        int32_t bj = bin_of(members[j]);
        if (!BinLive(bj)) {
          continue;
        }
        if (problem_->DomainOf(bj, spec.scope) == di) {
          colocated += 1.0;
        }
      }
    }
    pen += weight * colocated;
  }
  return pen;
}

double ViolationTracker::DrainPenaltyOf(int bin) const {
  if (!specs_->has_drain_goal()) {
    return 0.0;
  }
  if (problem_->bin_draining[static_cast<size_t>(bin)] == 0) {
    return 0.0;
  }
  return specs_->drain_weight();
}

double ViolationTracker::MoveDelta(int entity, int to) const {
  SM_CHECK_GE(to, 0);
  int from = problem_->assignment[static_cast<size_t>(entity)];
  if (from == to) {
    return 0.0;
  }
  double delta = 0.0;

  // Load-related penalties on the two touched bins.
  for (int m = 0; m < metrics_; ++m) {
    double l = problem_->load(entity, m);
    if (l == 0.0) {
      continue;
    }
    if (from >= 0 && BinLive(from)) {
      double cur = bin_load(from, m);
      delta += BinMetricPenalty(from, m, cur - l, kGoalAll) -
               BinMetricPenalty(from, m, cur, kGoalAll);
    }
    double cur_to = bin_load(to, m);
    delta += BinMetricPenalty(to, m, cur_to + l, kGoalAll) -
             BinMetricPenalty(to, m, cur_to, kGoalAll);
  }

  // Unassigned / dead-bin penalty disappears when the entity lands on a live bin.
  if (from < 0 || !BinLive(from)) {
    delta -= kUnassignedWeight;
  } else {
    delta -= DrainPenaltyOf(from);
  }
  delta += DrainPenaltyOf(to);

  // Group goals change only if the entity's fault domains change.
  int32_t group = problem_->entity_group[static_cast<size_t>(entity)];
  if (group >= 0) {
    delta += GroupPenalty(group, entity, to) - GroupPenalty(group, -1, -1);
  }
  return delta;
}

void ViolationTracker::ApplyMove(int entity, int to) {
  double delta = MoveDelta(entity, to);
  int from = problem_->assignment[static_cast<size_t>(entity)];
  SM_CHECK_NE(from, to);

  if (from >= 0) {
    auto& list = bin_entities_[static_cast<size_t>(from)];
    auto it = std::find(list.begin(), list.end(), entity);
    SM_CHECK(it != list.end());
    *it = list.back();
    list.pop_back();
    for (int m = 0; m < metrics_; ++m) {
      bin_load_[static_cast<size_t>(from) * static_cast<size_t>(metrics_) +
                static_cast<size_t>(m)] -= problem_->load(entity, m);
    }
  }
  bin_entities_[static_cast<size_t>(to)].push_back(entity);
  for (int m = 0; m < metrics_; ++m) {
    bin_load_[static_cast<size_t>(to) * static_cast<size_t>(metrics_) +
              static_cast<size_t>(m)] += problem_->load(entity, m);
  }
  problem_->assignment[static_cast<size_t>(entity)] = to;
  objective_ += delta;
  ++applied_moves_;
  ++moves_since_recompute_;
  MaybeAutoRecompute();
}

void ViolationTracker::SetAutoRecompute(int64_t every_moves, bool scope_averages_too) {
  auto_recompute_moves_ = every_moves;
  auto_recompute_averages_ = scope_averages_too;
}

void ViolationTracker::SetDriftCheck(bool enabled, double tolerance) {
  drift_check_ = enabled;
  drift_tolerance_ = tolerance;
}

double ViolationTracker::MeasureDrift() const {
  double exact = ComputeExactObjective();
  return std::abs(objective_ - exact) / std::max(1.0, std::abs(exact));
}

void ViolationTracker::MaybeAutoRecompute() {
  if (auto_recompute_moves_ <= 0 || moves_since_recompute_ < auto_recompute_moves_) {
    return;
  }
  // Measure drift against the exact objective under the *current* averages — the value the
  // incremental deltas were approximating — before any average refresh moves the target.
  double exact = ComputeExactObjective();
  if (drift_check_) {
    double drift = std::abs(objective_ - exact) / std::max(1.0, std::abs(exact));
    SM_CHECK(drift <= drift_tolerance_);
  }
  if (auto_recompute_averages_) {
    RecomputeAll();
  } else {
    objective_ = exact;
    moves_since_recompute_ = 0;
  }
}

void ViolationTracker::RecomputeScopeAverages() {
  for (BalanceState& state : balance_states_) {
    int domains = problem_->NumDomains(state.spec.scope);
    std::vector<double> dom_load(static_cast<size_t>(domains), 0.0);
    std::vector<double> dom_cap(static_cast<size_t>(domains), 0.0);
    int m = state.spec.metric;
    for (int b = 0; b < problem_->num_bins(); ++b) {
      if (problem_->bin_alive[static_cast<size_t>(b)] == 0) {
        continue;
      }
      int32_t dom = problem_->DomainOf(b, state.spec.scope);
      dom_load[static_cast<size_t>(dom)] += bin_load(b, m);
      dom_cap[static_cast<size_t>(dom)] += problem_->capacity(b, m);
    }
    state.avg_util.assign(static_cast<size_t>(domains), 0.0);
    for (int d = 0; d < domains; ++d) {
      if (dom_cap[static_cast<size_t>(d)] > kEps) {
        state.avg_util[static_cast<size_t>(d)] =
            dom_load[static_cast<size_t>(d)] / dom_cap[static_cast<size_t>(d)];
      }
    }
  }
}

double ViolationTracker::ComputeExactObjective() const {
  double obj = 0.0;
  for (int b = 0; b < problem_->num_bins(); ++b) {
    if (!BinLive(b)) {
      continue;
    }
    obj += BinLoadPenalty(b, kGoalAll);
    obj += DrainPenaltyOf(b) * static_cast<double>(bin_entities_[static_cast<size_t>(b)].size());
  }
  for (int32_t g = 0; g < num_groups(); ++g) {
    obj += GroupPenalty(g, -1, -1);
  }
  for (int e = 0; e < problem_->num_entities(); ++e) {
    int32_t b = problem_->assignment[static_cast<size_t>(e)];
    if (b < 0 || !BinLive(b)) {
      obj += kUnassignedWeight;
    }
  }
  return obj;
}

void ViolationTracker::RecomputeAll() {
  RecomputeScopeAverages();
  objective_ = ComputeExactObjective();
  moves_since_recompute_ = 0;
}

ViolationCounts ViolationTracker::Count() const {
  ViolationCounts counts;
  for (int e = 0; e < problem_->num_entities(); ++e) {
    int32_t b = problem_->assignment[static_cast<size_t>(e)];
    if (b < 0 || !BinLive(b)) {
      ++counts.unassigned;
    } else if (problem_->bin_draining[static_cast<size_t>(b)] != 0 &&
               specs_->has_drain_goal()) {
      ++counts.drain;
    }
  }
  for (int b = 0; b < problem_->num_bins(); ++b) {
    if (!BinLive(b)) {
      continue;
    }
    for (int m = 0; m < metrics_; ++m) {
      double util = BinUtilization(b, m);
      double limit = capacity_limit_[static_cast<size_t>(m)];
      if (limit >= 0 && util > limit + kEps) {
        ++counts.capacity;
      }
      for (const auto& [spec, weight] : specs_->thresholds()) {
        if (spec.metric == m && util > spec.threshold + kEps) {
          ++counts.threshold;
        }
      }
      for (const BalanceState& state : balance_states_) {
        if (state.spec.metric != m || state.avg_util.empty()) {
          continue;
        }
        int32_t dom = problem_->DomainOf(b, state.spec.scope);
        if (util > state.avg_util[static_cast<size_t>(dom)] + state.spec.tolerance + kEps) {
          ++counts.balance;
        }
      }
    }
  }
  for (int32_t group = 0; group < num_groups(); ++group) {
    auto aff_it = group_affinity_.find(group);
    if (aff_it != group_affinity_.end()) {
      for (const AffinityEntry& entry : aff_it->second) {
        int count = 0;
        for (int32_t member : GroupMembers(group)) {
          int32_t b = problem_->assignment[static_cast<size_t>(member)];
          if (BinLive(b) && problem_->bin_region[static_cast<size_t>(b)] == entry.region) {
            ++count;
          }
        }
        if (count < entry.min_count) {
          counts.affinity += entry.min_count - count;
        }
      }
    }
    for (const auto& [spec, weight] : specs_->exclusions()) {
      const std::span<const int32_t> members = GroupMembers(group);
      for (size_t i = 0; i < members.size(); ++i) {
        int32_t bi = problem_->assignment[static_cast<size_t>(members[i])];
        if (!BinLive(bi)) {
          continue;
        }
        int32_t di = problem_->DomainOf(bi, spec.scope);
        for (size_t j = i + 1; j < members.size(); ++j) {
          int32_t bj = problem_->assignment[static_cast<size_t>(members[j])];
          if (BinLive(bj) && problem_->DomainOf(bj, spec.scope) == di) {
            ++counts.exclusion;
          }
        }
      }
    }
  }
  return counts;
}

std::vector<double> ViolationTracker::ComputeBinPenalties(
    uint32_t mask, ThreadPool* pool, const std::vector<int32_t>* scan_groups) const {
  const int64_t bins = problem_->num_bins();
  const int64_t groups = num_groups();
  // Sharding is worth the task overhead only for large scans; below the threshold the pool is
  // ignored. Each sharded iteration writes its own slot, so the values never depend on the
  // chunking or on which thread ran them — the scan is a pure map.
  const bool shard = pool != nullptr && pool->threads() > 1 && bins + groups >= 4096;

  std::vector<double> penalties(static_cast<size_t>(bins), 0.0);
  auto scan_bins = [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      if (!BinLive(static_cast<int>(b))) {
        continue;
      }
      double pen = BinLoadPenalty(static_cast<int>(b), mask);
      if ((mask & kGoalDrain) != 0) {
        pen += DrainPenaltyOf(static_cast<int>(b)) *
               static_cast<double>(bin_entities_[static_cast<size_t>(b)].size());
      }
      penalties[static_cast<size_t>(b)] = pen;
    }
  };
  if (shard) {
    pool->ParallelFor(0, bins, 1024, scan_bins);
  } else {
    scan_bins(0, bins);
  }

  if ((mask & kGoalGroup) != 0 && scan_groups != nullptr) {
    // Restricted scan (incremental repair): only the listed groups are evaluated, into a
    // compact per-entry scratch — O(dirty) work and memory instead of O(groups). The list is
    // sorted ascending, so the scatter accumulates onto each bin in the same group order as the
    // full scan below and the floating-point sums come out bit-identical.
    const std::vector<int32_t>& list = *scan_groups;
    const int64_t n = static_cast<int64_t>(list.size());
    std::vector<double> scoped_pen(static_cast<size_t>(n), 0.0);
    auto scan_scoped = [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        scoped_pen[static_cast<size_t>(i)] = GroupPenalty(list[static_cast<size_t>(i)], -1, -1);
      }
    };
    if (shard) {
      pool->ParallelFor(0, n, 2048, scan_scoped);
    } else {
      scan_scoped(0, n);
    }
    for (int64_t i = 0; i < n; ++i) {
      double pen = scoped_pen[static_cast<size_t>(i)];
      if (pen <= kEps) {
        continue;
      }
      for (int32_t member : GroupMembers(list[static_cast<size_t>(i)])) {
        int32_t b = problem_->assignment[static_cast<size_t>(member)];
        if (BinLive(b)) {
          penalties[static_cast<size_t>(b)] += pen;
        }
      }
    }
  } else if ((mask & kGoalGroup) != 0) {
    // Group penalties are computed into per-group slots (shardable map), then scattered onto
    // member bins sequentially: the scatter writes overlap across groups, so it stays serial.
    std::vector<double> group_pen(static_cast<size_t>(groups), 0.0);
    auto scan_all = [&](int64_t begin, int64_t end) {
      for (int64_t g = begin; g < end; ++g) {
        group_pen[static_cast<size_t>(g)] = GroupPenalty(static_cast<int32_t>(g), -1, -1);
      }
    };
    if (shard) {
      pool->ParallelFor(0, groups, 2048, scan_all);
    } else {
      scan_all(0, groups);
    }
    for (int32_t g = 0; g < num_groups(); ++g) {
      double pen = group_pen[static_cast<size_t>(g)];
      if (pen <= kEps) {
        continue;
      }
      for (int32_t member : GroupMembers(g)) {
        int32_t b = problem_->assignment[static_cast<size_t>(member)];
        if (BinLive(b)) {
          penalties[static_cast<size_t>(b)] += pen;
        }
      }
    }
  }
  return penalties;
}

void ViolationTracker::AppendViolatingGroups(std::vector<int32_t>* out) const {
  for (int32_t g = 0; g < num_groups(); ++g) {
    if (GroupPenalty(g, -1, -1) > kEps) {
      out->push_back(g);
    }
  }
}

std::vector<int32_t> ViolationTracker::UnavailableEntities() const {
  std::vector<int32_t> out;
  for (int e = 0; e < problem_->num_entities(); ++e) {
    int32_t b = problem_->assignment[static_cast<size_t>(e)];
    if (b < 0 || !BinLive(b)) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace shardman
