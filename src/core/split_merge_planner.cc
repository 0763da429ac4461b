#include "src/core/split_merge_planner.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace shardman {

SplitMergePlanner::SplitMergePlanner(Simulator* sim, Orchestrator* orchestrator,
                                     const obs::RequestAccountant* accountant, int app_slot,
                                     SplitMergePlannerConfig config)
    : sim_(sim),
      orchestrator_(orchestrator),
      accountant_(accountant),
      app_slot_(app_slot),
      config_(config) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(orchestrator != nullptr);
  SM_CHECK(accountant != nullptr);
  SM_CHECK(accountant->configured());
  SM_CHECK_GT(config_.window, 0);
  SM_CHECK_GE(config_.split_after_windows, 1);
  SM_CHECK_GE(config_.merge_after_windows, 1);
  SM_CHECK_GE(config_.min_shards, 1);
  SM_CHECK(config_.key_histogram_bits >= 1 && config_.key_histogram_bits <= 20);
  const obs::RequestAccountingOptions& options = accountant_->options();
  // Per-shard signal is exact only while every live shard has its own bucket.
  config_.max_shards = std::min(config_.max_shards, options.shard_buckets);
  prev_buckets_.resize(static_cast<size_t>(options.shard_buckets));
  window_buckets_.resize(static_cast<size_t>(options.shard_buckets));
  key_hist_.assign(size_t{1} << config_.key_histogram_bits, 0);
  key_shift_ = 64 - config_.key_histogram_bits;
}

SplitMergePlanner::~SplitMergePlanner() { Stop(); }

void SplitMergePlanner::Start() {
  if (tick_event_.valid()) return;
  tick_event_ = sim_->SchedulePeriodic(config_.window, config_.window, [this]() { Tick(); });
}

void SplitMergePlanner::Stop() {
  if (!tick_event_.valid()) return;
  sim_->Cancel(tick_event_);
  tick_event_ = EventId{};
}

void SplitMergePlanner::SnapshotWindows() {
  const obs::RequestAccountingOptions& options = accountant_->options();
  for (int b = 0; b < options.shard_buckets; ++b) {
    obs::RedTotals current;
    for (int r = 0; r < options.regions; ++r) {
      current.Add(accountant_->AppRegionBucketTotals(app_slot_, r, b));
    }
    window_buckets_[static_cast<size_t>(b)] =
        current.Delta(prev_buckets_[static_cast<size_t>(b)]);
    prev_buckets_[static_cast<size_t>(b)] = current;
  }
}

void SplitMergePlanner::DecayHistogram() {
  // Exponential decay so the split-point signal tracks a moving hotspot instead of the
  // all-time key distribution.
  for (uint64_t& count : key_hist_) {
    count >>= 1;
  }
}

uint64_t SplitMergePlanner::SplitPointFor(ShardId shard) const {
  const KeyRange range = orchestrator_->shard_range(shard);
  if (range.empty()) {
    return 0;
  }
  const uint64_t midpoint = range.begin + (range.end - range.begin) / 2;
  const uint64_t bucket_span = uint64_t{1} << key_shift_;
  if (range.end - range.begin < 2 * bucket_span) {
    return midpoint;  // no interior histogram boundary exists at this granularity
  }
  // Candidate split keys are the histogram bucket boundaries strictly inside the range;
  // weight each interior bucket fully (edge buckets straddling the boundary are attributed
  // to whichever side holds their low end — the ~one-bucket error is irrelevant against
  // Zipf-scale skew). Pick the boundary where the cumulative weight first reaches half.
  const size_t first = static_cast<size_t>(range.begin >> key_shift_);
  const size_t last = static_cast<size_t>((range.end - 1) >> key_shift_);
  uint64_t total = 0;
  for (size_t b = first; b <= last && b < key_hist_.size(); ++b) {
    total += key_hist_[b];
  }
  if (total == 0) {
    return midpoint;
  }
  uint64_t cumulative = 0;
  for (size_t b = first; b <= last && b < key_hist_.size(); ++b) {
    cumulative += key_hist_[b];
    if (cumulative * 2 >= total) {
      uint64_t boundary = (static_cast<uint64_t>(b) + 1) << key_shift_;
      if (boundary > range.begin && boundary < range.end) {
        return boundary;
      }
      break;  // median falls in the last (or an edge) bucket: midpoint is the best we have
    }
  }
  return midpoint;
}

bool SplitMergePlanner::TrySplit() {
  if (orchestrator_->active_shards() >= config_.max_shards) {
    return false;
  }
  // Hottest eligible shard wins; ties break toward the lowest id (deterministic scan order).
  ShardId best;
  uint64_t best_rate = 0;
  for (size_t s = 0; s < signals_.size(); ++s) {
    const ShardSignal& signal = signals_[s];
    if (!signal.was_active || signal.cooldown > 0 ||
        signal.hot_streak < config_.split_after_windows) {
      continue;
    }
    if (!best.valid() || signal.window_requests > best_rate) {
      best = ShardId(static_cast<int32_t>(s));
      best_rate = signal.window_requests;
    }
  }
  if (!best.valid()) {
    return false;
  }
  const uint64_t split_key = SplitPointFor(best);
  const KeyRange range = orchestrator_->shard_range(best);
  if (split_key <= range.begin || split_key >= range.end) {
    return false;  // one-key range: nothing to split
  }
  if (!orchestrator_->SplitShard(best, split_key).ok()) {
    return false;
  }
  ++splits_requested_;
  SM_COUNTER_INC("sm.hotspot.planner_splits");
  signals_[static_cast<size_t>(best.value)].cooldown = config_.cooldown_windows;
  signals_[static_cast<size_t>(best.value)].hot_streak = 0;
  // The child id exists as soon as SplitShard returns; start it cooling too so the fresh
  // half-shard isn't immediately judged on a window it only partially served.
  if (static_cast<size_t>(orchestrator_->num_shards()) > signals_.size()) {
    signals_.resize(static_cast<size_t>(orchestrator_->num_shards()));
  }
  for (size_t s = 0; s < signals_.size(); ++s) {
    ShardId id(static_cast<int32_t>(s));
    if (orchestrator_->shard_active(id) && orchestrator_->shard_range(id).empty()) {
      signals_[s] = ShardSignal{};
      signals_[s].cooldown = config_.cooldown_windows;
    }
  }
  return true;
}

bool SplitMergePlanner::TryMerge() {
  if (orchestrator_->active_shards() <= config_.min_shards) {
    return false;
  }
  // Walk active shards in key order; the first adjacent pair where both sides earned their
  // cold streak (and neither is cooling down) merges.
  std::vector<std::pair<uint64_t, ShardId>> by_begin;
  for (int s = 0; s < orchestrator_->num_shards(); ++s) {
    ShardId id(s);
    if (orchestrator_->shard_active(id) && !orchestrator_->shard_range(id).empty()) {
      by_begin.emplace_back(orchestrator_->shard_range(id).begin, id);
    }
  }
  std::sort(by_begin.begin(), by_begin.end());
  for (size_t i = 0; i + 1 < by_begin.size(); ++i) {
    const ShardId left = by_begin[i].second;
    const ShardId right = by_begin[i + 1].second;
    const ShardSignal& ls = signals_[static_cast<size_t>(left.value)];
    const ShardSignal& rs = signals_[static_cast<size_t>(right.value)];
    if (ls.cooldown > 0 || rs.cooldown > 0) {
      continue;
    }
    if (ls.cold_streak < config_.merge_after_windows ||
        rs.cold_streak < config_.merge_after_windows) {
      continue;
    }
    // The merged shard must still be comfortably cold, or it would immediately re-split.
    if (ls.window_requests + rs.window_requests >= config_.hot_requests_per_window / 2) {
      continue;
    }
    if (!orchestrator_->MergeShards(left, right).ok()) {
      continue;
    }
    ++merges_requested_;
    SM_COUNTER_INC("sm.hotspot.planner_merges");
    signals_[static_cast<size_t>(left.value)].cooldown = config_.cooldown_windows;
    signals_[static_cast<size_t>(left.value)].cold_streak = 0;
    signals_[static_cast<size_t>(right.value)] = ShardSignal{};
    signals_[static_cast<size_t>(right.value)].cooldown = config_.cooldown_windows;
    return true;
  }
  return false;
}

void SplitMergePlanner::Tick() {
  ++ticks_;
  SM_COUNTER_INC("sm.hotspot.planner_ticks");
  SnapshotWindows();
  if (static_cast<size_t>(orchestrator_->num_shards()) > signals_.size()) {
    signals_.resize(static_cast<size_t>(orchestrator_->num_shards()));
  }
  const obs::RequestAccountingOptions& options = accountant_->options();
  for (size_t s = 0; s < signals_.size(); ++s) {
    ShardSignal& signal = signals_[s];
    const ShardId id(static_cast<int32_t>(s));
    const bool active = orchestrator_->shard_active(id) &&
                        !orchestrator_->shard_range(id).empty();
    if (!active) {
      // Keep the cooldown (a retired id can be reborn as a split child) but no streaks.
      signal.hot_streak = 0;
      signal.cold_streak = 0;
      signal.was_active = false;
      signal.window_requests = 0;
      signal.window_p99_ms = 0.0;
      if (signal.cooldown > 0) --signal.cooldown;
      continue;
    }
    const obs::RedTotals& window =
        window_buckets_[s & static_cast<size_t>(options.shard_buckets - 1)];
    signal.was_active = true;
    signal.window_requests = window.completed;
    signal.window_p99_ms = window.PercentileMs(0.99);
    const bool hot = window.completed > config_.hot_requests_per_window ||
                     (window.completed >= config_.min_requests &&
                      signal.window_p99_ms > config_.hot_p99_ms);
    const bool cold = window.completed < config_.cold_requests_per_window;
    signal.hot_streak = hot ? signal.hot_streak + 1 : 0;
    signal.cold_streak = cold ? signal.cold_streak + 1 : 0;
    if (signal.cooldown > 0) --signal.cooldown;
  }
  // One structural op per tick, and none while the orchestrator is mid-transaction — the
  // hysteresis that keeps the planner decisive but never flapping.
  if (!orchestrator_->structural_change_in_flight()) {
    if (!TrySplit()) {
      TryMerge();
    }
  }
  DecayHistogram();
}

}  // namespace shardman
