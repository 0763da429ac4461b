#include "src/workload/request_source.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/split_merge_planner.h"
#include "src/workload/load_gen.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

// Zipf key classes: the baseline is scattered over every shard, the flash class is a tight
// region half the keyspace away.
constexpr uint64_t kBaselinePopulation = 1 << 20;
constexpr uint64_t kFlashPopulation = 1 << 14;

}  // namespace

void SloAccount::Record(const RequestOutcome& outcome, double slo_ms) {
  if (!outcome.success) {
    failures.Add(outcome.status.code());
    ++slo_violations;  // whatever its wall time, fast rejections included
    return;
  }
  ++ok;
  latency_sum_us += static_cast<uint64_t>(outcome.latency);
  latency.Add(static_cast<uint64_t>(outcome.latency));
  if (ToMillis(outcome.latency) > slo_ms) {
    ++slo_violations;
  }
}

void SloAccount::Merge(const SloAccount& other) {
  sent += other.sent;
  ok += other.ok;
  slo_violations += other.slo_violations;
  latency_sum_us += other.latency_sum_us;
  latency.Merge(other.latency);
  failures.Merge(other.failures);
}

double SloAccount::failure_rate() const {
  return finished() == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(finished());
}

double SloAccount::slo_attainment() const {
  if (finished() == 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(slo_violations) / static_cast<double>(finished());
}

double SloAccount::mean_ms() const {
  return ok == 0 ? 0.0 : static_cast<double>(latency_sum_us) / static_cast<double>(ok) / 1000.0;
}

int SloRecorder::AddSlice(TimeMicros begin, TimeMicros end) {
  slices_.push_back(Slice{begin, end, SloAccount{}});
  return static_cast<int>(slices_.size()) - 1;
}

SloAccount* SloRecorder::IntervalOf(TimeMicros due) {
  if (interval_ <= 0) {
    return nullptr;
  }
  SM_CHECK_GE(due, origin_);
  const size_t index = static_cast<size_t>((due - origin_) / interval_);
  if (index >= series_.size()) {
    series_.resize(index + 1);
  }
  return &series_[index];
}

void SloRecorder::Sent(TimeMicros due) {
  ++total_.sent;
  for (Slice& slice : slices_) {
    if (due >= slice.begin && due < slice.end) {
      ++slice.account.sent;
    }
  }
  if (SloAccount* interval = IntervalOf(due)) {
    ++interval->sent;
  }
}

void SloRecorder::Record(TimeMicros due, const RequestOutcome& outcome) {
  total_.Record(outcome, slo_ms_);
  for (Slice& slice : slices_) {
    if (due >= slice.begin && due < slice.end) {
      slice.account.Record(outcome, slo_ms_);
    }
  }
  if (SloAccount* interval = IntervalOf(due)) {
    interval->Record(outcome, slo_ms_);
  }
}

RequestSource::RequestSource(Testbed* testbed, RegionId client_region,
                             RequestSourceConfig config)
    : testbed_(testbed),
      config_(config),
      rng_(config.seed),
      recorder_(config.slo_ms, config.interval) {
  SM_CHECK(testbed != nullptr);
  SM_CHECK_GT(config_.requests_per_second, 0.0);
  SM_CHECK_GE(config_.flash_peak, 1.0);
  SM_CHECK_GT(config_.key_span, 0u);
  router_ = testbed_->CreateRouter(client_region);
  const int shards = testbed_->sharded_sim().num_shards();
  feeder_ = shards > 1 ? 1 + client_region.value % (shards - 1) : 0;
}

RequestSource::~RequestSource() = default;

void RequestSource::Start() {
  SM_CHECK(!started_);
  started_ = true;
  ShardedSimulator& ssim = testbed_->sharded_sim();
  window_ = std::max<TimeMicros>(ssim.lookahead(), Millis(20));
  start_ = ssim.Now();
  recorder_.set_origin(start_);
  // From the exclusive phase this schedules directly onto the feeder shard.
  ssim.Send(feeder_, 0, [this]() { GenerateWindow(); });
}

void RequestSource::StopAt(TimeMicros when) { end_ = when; }

void RequestSource::Stop() { StopAt(testbed_->sharded_sim().Now()); }

bool RequestSource::Drain(TimeMicros timeout) {
  Stop();
  ShardedSimulator& ssim = testbed_->sharded_sim();
  const TimeMicros deadline = ssim.Now() + timeout;
  const SloAccount& total = recorder_.total();
  while (generated_ != total.sent || total.sent != total.finished()) {
    if (ssim.Now() >= deadline) {
      return false;
    }
    ssim.RunFor(window_);
  }
  return true;
}

uint64_t RequestSource::SampleKey(double flash) {
  if (config_.zipf_s <= 0.0) {
    return rng_.Next() % config_.key_span;
  }
  // The flash crowd is the rate above baseline.
  ZipfKeyConfig keys;
  if (flash > 1.0 && rng_.Bernoulli((flash - 1.0) / flash)) {
    keys.population = kFlashPopulation;
    keys.s = config_.flash_zipf_s > 0.0 ? config_.flash_zipf_s : config_.zipf_s;
    keys.hot_center = ~0ULL / 2;
  } else {
    keys.population = kBaselinePopulation;
    keys.s = config_.zipf_s;
    keys.scatter = true;
  }
  return SampleZipfKey(rng_, keys);
}

RequestType RequestSource::SampleType() {
  if (config_.write_fraction <= 0.0) {
    return RequestType::kRead;  // an all-read mix draws nothing
  }
  return rng_.Uniform() < config_.write_fraction ? RequestType::kWrite : RequestType::kRead;
}

void RequestSource::GenerateWindow() {
  ShardedSimulator& ssim = testbed_->sharded_sim();
  Simulator& engine = ssim.shard(feeder_);
  const TimeMicros now = engine.Now();
  if (now >= end_) {
    return;  // stopped: in-flight requests finish, no new arrivals
  }
  // This batch covers [now + window_, now + 2*window_): one full conservative window ahead,
  // so every cross-shard send below satisfies the lookahead bound.
  const TimeMicros begin = now + window_;
  const TimeMicros end = begin + window_;
  // Thinning: candidate arrivals at the peak rate, each accepted with probability
  // rate(t)/peak — an exact nonhomogeneous Poisson process, deterministic per seed.
  const double mean_gap_us = 1e6 / (config_.requests_per_second * config_.flash_peak);
  if (next_candidate_ < begin) {
    next_candidate_ = begin;
  }
  while (next_candidate_ < end) {
    const TimeMicros at = next_candidate_;
    next_candidate_ +=
        std::max<TimeMicros>(1, static_cast<TimeMicros>(rng_.Exponential(mean_gap_us)));
    const TimeMicros since_start = at - start_;
    double flash = 1.0;
    if (config_.flash_peak > 1.0) {
      flash = FlashCrowdFactor(since_start, config_.flash_start, config_.flash_rise,
                               config_.flash_hold, config_.flash_fall, config_.flash_peak);
    }
    double factor = flash;
    if (config_.diurnal_trough < 1.0) {
      factor *= DiurnalFactor(since_start, config_.diurnal_trough);
    }
    if (!rng_.Bernoulli(factor / config_.flash_peak)) {
      continue;
    }
    const uint64_t key = SampleKey(flash);
    const RequestType type = SampleType();
    ++generated_;
    ssim.Send(0, at - now, [this, key, type]() { Arrive(key, type); });
  }
  engine.Schedule(window_, [this]() { GenerateWindow(); });
}

void RequestSource::Arrive(uint64_t key, RequestType type) {
  const TimeMicros due = testbed_->sim().Now();
  recorder_.Sent(due);
  if (key_observer_ != nullptr) {
    key_observer_->ObserveKey(key);
  }
  router_->Route(key, type, key,
                 [this, due](const RequestOutcome& outcome) { recorder_.Record(due, outcome); });
}

}  // namespace shardman
