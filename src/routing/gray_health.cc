#include "src/routing/gray_health.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/obs.h"

namespace shardman {
namespace {

constexpr size_t kMaxRetainedEvents = 4096;

double MedianOf(std::vector<double>* values) {
  // Full sort (not nth_element) so the result is identical across library implementations —
  // health events feed the determinism-tested flight dumps.
  std::sort(values->begin(), values->end());
  size_t n = values->size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return (*values)[n / 2];
  return ((*values)[n / 2 - 1] + (*values)[n / 2]) / 2.0;
}

std::string ReplicaDetail(const HealthEvent& event) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "server=%d signal=%s value=%.4f median=%.4f",
                event.server.value, ToString(event.signal), event.value, event.median);
  return buf;
}

std::string LinkDetail(const HealthEvent& event) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "link=r%d->r%d signal=%s value=%.4f median=%.4f",
                event.link_from, event.link_to, ToString(event.signal), event.value,
                event.median);
  return buf;
}

}  // namespace

const char* ToString(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kReplicaGray:
      return "replica_gray";
    case HealthEventKind::kReplicaRecovered:
      return "replica_recovered";
    case HealthEventKind::kLinkGray:
      return "link_gray";
    case HealthEventKind::kLinkRecovered:
      return "link_recovered";
  }
  return "unknown";
}

const char* ToString(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kTimeoutRatio:
      return "timeout_ratio";
    case HealthSignal::kP99Inflation:
      return "p99_inflation";
    case HealthSignal::kNone:
      return "none";
  }
  return "unknown";
}

GrayHealthScorer::GrayHealthScorer(Simulator* sim, const obs::RequestAccountant* accountant,
                                   GrayHealthConfig config)
    : sim_(sim), accountant_(accountant), config_(config) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(accountant != nullptr);
  SM_CHECK(accountant->configured());
  SM_CHECK_GT(config_.window, 0);
  const obs::RequestAccountingOptions& options = accountant_->options();
  servers_.resize(static_cast<size_t>(options.max_servers));
  links_.resize(static_cast<size_t>(options.regions) * options.regions);
  app_region_.resize(static_cast<size_t>(options.max_apps) * options.regions);
  gray_flags_.assign(static_cast<size_t>(options.max_servers), 0);
}

GrayHealthScorer::~GrayHealthScorer() { Stop(); }

void GrayHealthScorer::Start() {
  if (tick_event_.valid()) return;
  tick_event_ =
      sim_->SchedulePeriodic(config_.window, config_.window, [this]() { Tick(); });
}

void GrayHealthScorer::Stop() {
  if (!tick_event_.valid()) return;
  sim_->Cancel(tick_event_);
  tick_event_ = EventId{};
}

bool GrayHealthScorer::IsFlagged(ServerId server) const {
  return server.valid() && static_cast<size_t>(server.value) < servers_.size() &&
         servers_[server.value].flagged;
}

void GrayHealthScorer::ClearEvents() {
  events_.clear();
  dropped_events_ = 0;
}

void GrayHealthScorer::Emit(HealthEvent event) {
  if (events_.size() < kMaxRetainedEvents) {
    events_.push_back(event);
  } else {
    ++dropped_events_;
  }
  const bool link = event.kind == HealthEventKind::kLinkGray ||
                    event.kind == HealthEventKind::kLinkRecovered;
  SM_FLIGHT("health", ToString(event.kind), link ? LinkDetail(event) : ReplicaDetail(event));
  switch (event.kind) {
    case HealthEventKind::kReplicaGray:
      SM_COUNTER_INC("sm.health.replicas_flagged");
      break;
    case HealthEventKind::kReplicaRecovered:
      SM_COUNTER_INC("sm.health.replicas_recovered");
      break;
    case HealthEventKind::kLinkGray:
      SM_COUNTER_INC("sm.health.links_flagged");
      break;
    case HealthEventKind::kLinkRecovered:
      SM_COUNTER_INC("sm.health.links_recovered");
      break;
  }
  SM_TRACE_INSTANT("health", ToString(event.kind),
                   obs::Arg("server", static_cast<int64_t>(event.server.value)));
}

bool GrayHealthScorer::UpdateStreaks(PeerState* state, bool judged, bool outlier) {
  if (judged) {
    state->silent_streak = 0;
    if (outlier) {
      ++state->outlier_streak;
      state->healthy_streak = 0;
    } else {
      ++state->healthy_streak;
      state->outlier_streak = 0;
    }
  } else if (state->flagged) {
    // A flagged peer with too little traffic to judge — usually because demotion steered
    // requests away. It cannot earn a judged clear, so re-probe it after a (long) silent
    // streak instead of exiling it forever.
    ++state->silent_streak;
    state->outlier_streak = 0;
    if (state->silent_streak >= config_.silent_clear_windows) {
      state->silent_streak = 0;
      state->healthy_streak = 0;
      state->flagged = false;
      return true;
    }
    return false;
  } else {
    return false;  // unflagged and unjudged: nothing to learn this window
  }
  if (!state->flagged && state->outlier_streak >= config_.flag_after_windows) {
    state->flagged = true;
    return true;
  }
  if (state->flagged && state->healthy_streak >= config_.clear_after_windows) {
    state->flagged = false;
    return true;
  }
  return false;
}

void GrayHealthScorer::JudgeServers() {
  const obs::RequestAccountingOptions& options = accountant_->options();
  judged_ids_.clear();
  judged_ratios_.clear();
  judged_p99_.clear();
  for (int32_t id = 0; id < options.max_servers; ++id) {
    PeerState& state = servers_[id];
    obs::RedTotals now = accountant_->ServerTotals(id);
    obs::RedTotals window = now.Delta(state.prev);
    state.prev = now;
    if (window.completed >= config_.min_attempts) {
      judged_ids_.push_back(id);
      judged_ratios_.push_back(window.timeout_ratio());
      judged_p99_.push_back(window.PercentileMs(0.99));
    }
  }
  const bool enough_peers =
      static_cast<int>(judged_ids_.size()) >= std::max(config_.min_peers, 1);
  double median_ratio = 0.0;
  double median_p99 = 0.0;
  if (enough_peers) {
    median_scratch_ = judged_ratios_;
    median_ratio = MedianOf(&median_scratch_);
    median_scratch_ = judged_p99_;
    median_p99 = MedianOf(&median_scratch_);
  }
  const double ratio_threshold =
      std::max(config_.timeout_ratio_floor, config_.timeout_ratio_factor * median_ratio);
  const double p99_threshold =
      std::max(config_.p99_floor_ms, config_.p99_inflation_factor * median_p99);

  size_t judged_cursor = 0;
  for (int32_t id = 0; id < options.max_servers; ++id) {
    PeerState& state = servers_[id];
    bool judged = false;
    bool outlier = false;
    HealthSignal signal = HealthSignal::kNone;
    double value = 0.0;
    double median = 0.0;
    if (judged_cursor < judged_ids_.size() && judged_ids_[judged_cursor] == id) {
      judged = enough_peers;
      if (judged) {
        const double ratio = judged_ratios_[judged_cursor];
        const double p99 = judged_p99_[judged_cursor];
        if (ratio > ratio_threshold) {
          outlier = true;
          signal = HealthSignal::kTimeoutRatio;
          value = ratio;
          median = median_ratio;
        } else if (p99 > p99_threshold) {
          outlier = true;
          signal = HealthSignal::kP99Inflation;
          value = p99;
          median = median_p99;
        }
      }
      ++judged_cursor;
    }
    const bool was_flagged = state.flagged;
    if (UpdateStreaks(&state, judged, outlier)) {
      HealthEvent event;
      event.time = sim_->Now();
      event.kind = was_flagged ? HealthEventKind::kReplicaRecovered
                               : HealthEventKind::kReplicaGray;
      event.signal = was_flagged ? HealthSignal::kNone : signal;
      event.server = ServerId(id);
      event.value = value;
      event.median = median;
      Emit(event);
    }
  }
}

void GrayHealthScorer::JudgeLinks() {
  const obs::RequestAccountingOptions& options = accountant_->options();
  const int regions = options.regions;
  judged_ids_.clear();
  judged_ratios_.clear();
  judged_p99_.clear();
  for (int from = 0; from < regions; ++from) {
    for (int to = 0; to < regions; ++to) {
      const int32_t idx = from * regions + to;
      PeerState& state = links_[idx];
      obs::RedTotals now = accountant_->LinkTotals(from, to);
      obs::RedTotals window = now.Delta(state.prev);
      state.prev = now;
      if (window.completed >= config_.min_attempts) {
        judged_ids_.push_back(idx);
        judged_ratios_.push_back(window.timeout_ratio());
        judged_p99_.push_back(window.PercentileMs(0.99));
      }
    }
  }
  const bool enough_peers =
      static_cast<int>(judged_ids_.size()) >= std::max(config_.min_peers, 1);
  double median_ratio = 0.0;
  double median_p99 = 0.0;
  if (enough_peers) {
    median_scratch_ = judged_ratios_;
    median_ratio = MedianOf(&median_scratch_);
    median_scratch_ = judged_p99_;
    median_p99 = MedianOf(&median_scratch_);
  }
  const double ratio_threshold =
      std::max(config_.timeout_ratio_floor, config_.timeout_ratio_factor * median_ratio);
  const double p99_threshold =
      std::max(config_.p99_floor_ms, config_.p99_inflation_factor * median_p99);

  for (size_t j = 0; j < judged_ids_.size(); ++j) {
    const int32_t idx = judged_ids_[j];
    PeerState& state = links_[idx];
    bool outlier = false;
    HealthSignal signal = HealthSignal::kNone;
    double value = 0.0;
    double median = 0.0;
    if (enough_peers) {
      if (judged_ratios_[j] > ratio_threshold) {
        outlier = true;
        signal = HealthSignal::kTimeoutRatio;
        value = judged_ratios_[j];
        median = median_ratio;
      } else if (judged_p99_[j] > p99_threshold) {
        outlier = true;
        signal = HealthSignal::kP99Inflation;
        value = judged_p99_[j];
        median = median_p99;
      }
    }
    const bool was_flagged = state.flagged;
    if (UpdateStreaks(&state, enough_peers, outlier)) {
      HealthEvent event;
      event.time = sim_->Now();
      event.kind =
          was_flagged ? HealthEventKind::kLinkRecovered : HealthEventKind::kLinkGray;
      event.signal = was_flagged ? HealthSignal::kNone : signal;
      event.link_from = idx / regions;
      event.link_to = idx % regions;
      event.value = value;
      event.median = median;
      Emit(event);
    }
  }
  // Silent flagged links still need their recovery countdown (judged links were handled
  // above through UpdateStreaks).
  for (size_t idx = 0; idx < links_.size(); ++idx) {
    PeerState& state = links_[idx];
    if (!state.flagged) continue;
    if (std::find(judged_ids_.begin(), judged_ids_.end(), static_cast<int32_t>(idx)) !=
        judged_ids_.end()) {
      continue;
    }
    const bool was_flagged = state.flagged;
    if (UpdateStreaks(&state, /*judged=*/false, /*outlier=*/false) && was_flagged) {
      HealthEvent event;
      event.time = sim_->Now();
      event.kind = HealthEventKind::kLinkRecovered;
      event.link_from = static_cast<int>(idx) / regions;
      event.link_to = static_cast<int>(idx) % regions;
      Emit(event);
    }
  }
}

void GrayHealthScorer::PublishFlags() {
  // Count flagged replicas and the active population they sit in (peers with any lifetime
  // traffic — a cold spare should not dilute the fraction).
  int flagged = 0;
  int active = 0;
  for (size_t id = 0; id < servers_.size(); ++id) {
    if (servers_[id].prev.requests > 0 || servers_[id].prev.completed > 0) ++active;
    if (servers_[id].flagged) ++flagged;
  }
  flagged_count_ = flagged;
  const bool guard_tripped =
      active > 0 && static_cast<double>(flagged) >
                        config_.max_demoted_fraction * static_cast<double>(active);
  const bool publish = config_.demote && !guard_tripped;
  int demoted = 0;
  for (size_t id = 0; id < servers_.size(); ++id) {
    const uint8_t flag = publish && servers_[id].flagged ? 1 : 0;
    gray_flags_[id] = flag;
    demoted += flag;
  }
  if (guard_tripped && flagged > 0 && demoted_count_ > 0) {
    SM_FLIGHT("health", "demotion_guard_tripped");
    SM_COUNTER_INC("sm.health.demotion_guard_trips");
  }
  demoted_count_ = demoted;
  SM_GAUGE_SET("sm.health.gray_replicas", static_cast<double>(flagged_count_));
  SM_GAUGE_SET("sm.health.demoted_replicas", static_cast<double>(demoted_count_));
}

void GrayHealthScorer::ExportSloGauges() {
  // Per-(app, client region) rolling SLO gauges from the app plane. Names are dynamic, so
  // this goes through the registry API directly (the SM_GAUGE_SET macro needs literals); the
  // registry's find-or-create keeps it cheap at a handful of slots.
  const obs::RequestAccountingOptions& options = accountant_->options();
  char name[64];
  for (int app = 0; app < options.max_apps; ++app) {
    for (int region = 0; region < options.regions; ++region) {
      obs::RedTotals now = accountant_->AppRegionTotals(app, region);
      obs::RedTotals& prev = app_region_[static_cast<size_t>(app) * options.regions + region];
      obs::RedTotals window = now.Delta(prev);
      prev = now;
      if (window.completed == 0) continue;
      std::snprintf(name, sizeof(name), "sm.slo.a%d.r%d.p99_ms", app, region);
      obs::DefaultMetrics().GetGauge(name)->Set(window.PercentileMs(0.99));
      std::snprintf(name, sizeof(name), "sm.slo.a%d.r%d.error_ratio", app, region);
      obs::DefaultMetrics().GetGauge(name)->Set(window.error_ratio());
    }
  }
}

void GrayHealthScorer::Tick() {
  ++ticks_;
  SM_COUNTER_INC("sm.health.ticks");
  JudgeServers();
  JudgeLinks();
  PublishFlags();
  ExportSloGauges();
}

}  // namespace shardman
