#include "src/workload/hotspot_sim.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace shardman {
namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;
constexpr uint64_t kKeyspace = ~0ULL;  // exclusive end of the uniform app-spec key ranges

void Mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xFF)) * kFnvPrime;
    v >>= 8;
  }
}

}  // namespace

HotspotSim::HotspotSim(HotspotSimConfig config) : config_(config) {
  SM_CHECK_GT(config_.regions, 0);
  SM_CHECK_GT(config_.initial_shards, 0);
  SM_CHECK_GE(config_.max_shards, config_.initial_shards);
  SM_CHECK_GT(config_.requests_per_second, 0.0);
  SM_CHECK_GE(config_.flash_peak, 1.0);

  TestbedConfig tb;
  tb.regions.clear();
  for (int r = 0; r < config_.regions; ++r) {
    tb.regions.push_back("region" + std::to_string(r));
  }
  tb.servers_per_region = config_.servers_per_region;
  tb.app = MakeUniformAppSpec(AppId(1), "hotspot", config_.initial_shards,
                              ReplicationStrategy::kPrimaryOnly, 1);
  tb.app.placement.metrics = MetricSet({"cpu"});
  tb.accounting_shard_buckets = config_.max_shards;
  tb.server_service_rate = config_.server_service_rate;
  if (config_.server_service_rate > 0.0) {
    // Reported loads track served traffic, normalized so a server at its service rate reports
    // exactly its capacity (default 100 per metric). Placement then spreads split children by
    // what shards actually serve, and a faster poll keeps the view fresh between splits.
    tb.request_rate_cost = 100.0 / config_.server_service_rate;
    tb.mini_sm.orchestrator.load_poll_interval = Seconds(2);
    // Shed at ~80% of the router's 500ms attempt timeout: accepted requests can still make
    // the deadline, everything beyond is failed fast instead of queued as zombie work.
    tb.server_queue_limit = Millis(400);
  }
  tb.sim_shards = config_.sim_shards;
  tb.sim_threads = config_.sim_threads;
  tb.seed = config_.seed;
  testbed_ = std::make_unique<Testbed>(tb);

  Rng master(config_.seed ^ 0x48'4F'54'53'50'4F'54ULL);  // "HOTSPOT"
  for (int r = 0; r < config_.regions; ++r) {
    traffic_.push_back(std::make_unique<RegionTraffic>(master.Next()));
    slo_.push_back(std::make_unique<RegionSlo>());
  }
}

HotspotSim::~HotspotSim() = default;

double HotspotSim::RateFactorAt(TimeMicros t) const {
  if (config_.flash_peak <= 1.0) {
    return 1.0;
  }
  // The flash schedule is relative to traffic start — bringing the testbed to readiness
  // consumes sim time, and the scenario must not depend on how much.
  return FlashCrowdFactor(t - traffic_start_, config_.flash_start, config_.flash_rise,
                          config_.flash_hold, config_.flash_fall, config_.flash_peak);
}

void HotspotSim::Run(TimeMicros duration) {
  SM_CHECK(!started_);
  started_ = true;
  testbed_->Start();
  SM_CHECK(testbed_->RunUntilAllReady(Minutes(5)));

  for (int r = 0; r < config_.regions; ++r) {
    routers_.push_back(testbed_->CreateRouter(RegionId(r)));
  }
  if (config_.adaptive) {
    SplitMergePlannerConfig pcfg = config_.planner;
    pcfg.max_shards = std::min(pcfg.max_shards, config_.max_shards);
    const int app_slot = testbed_->accounting().AppSlot(testbed_->spec().id);
    planner_ = std::make_unique<SplitMergePlanner>(&testbed_->sim(), &testbed_->orchestrator(),
                                                   &testbed_->accounting(), app_slot, pcfg);
    planner_->Start();
  }

  ShardedSimulator& ssim = testbed_->sharded_sim();
  window_ = std::max<TimeMicros>(ssim.lookahead(), Millis(20));
  traffic_start_ = ssim.Now();
  traffic_end_ = traffic_start_ + duration;
  measure_begin_ =
      traffic_start_ + config_.flash_start + config_.flash_rise + config_.measure_grace;
  measure_end_ = traffic_start_ + config_.flash_start + config_.flash_rise + config_.flash_hold;
  for (int r = 0; r < config_.regions; ++r) {
    // From the exclusive phase this schedules directly onto the feeder shard.
    ssim.Send(feeder_shard(r), 0, [this, r]() { GenerateWindow(r); });
  }
  ssim.RunFor(duration);
}

void HotspotSim::GenerateWindow(int region) {
  ShardedSimulator& ssim = testbed_->sharded_sim();
  Simulator& engine = ssim.shard(feeder_shard(region));
  const TimeMicros now = engine.Now();
  if (now >= traffic_end_) {
    return;  // drained: in-flight requests finish, no new arrivals
  }
  RegionTraffic& traffic = *traffic_[static_cast<size_t>(region)];
  // This batch covers [now + window_, now + 2*window_): one full conservative window ahead,
  // so every cross-shard send below satisfies the lookahead bound.
  const TimeMicros begin = now + window_;
  const TimeMicros end = begin + window_;
  // Thinning: candidate arrivals at the peak rate, each accepted with probability
  // rate(t)/peak — an exact nonhomogeneous Poisson process, deterministic per seed.
  const double peak_rate = config_.requests_per_second * config_.flash_peak;
  const double mean_gap_us = 1e6 / peak_rate;
  if (traffic.next_candidate < begin) {
    traffic.next_candidate = begin;
  }
  while (traffic.next_candidate < end) {
    const TimeMicros at = traffic.next_candidate;
    traffic.next_candidate +=
        std::max<TimeMicros>(1, static_cast<TimeMicros>(traffic.rng.Exponential(mean_gap_us)));
    const double factor = RateFactorAt(at);
    if (!traffic.rng.Bernoulli(factor / config_.flash_peak)) {
      continue;
    }
    // The flash crowd is the rate above baseline, aimed at a tight key region half the
    // keyspace from the (possibly drifting) baseline hot center.
    uint64_t key;
    if (factor > 1.0 && traffic.rng.Bernoulli((factor - 1.0) / factor)) {
      ZipfKeyConfig flash;
      flash.population = config_.flash_population;
      flash.s = config_.flash_zipf_s > 0.0 ? config_.flash_zipf_s : config_.zipf_s;
      flash.hot_center = kKeyspace / 2;
      key = SampleZipfKey(traffic.rng, flash);
    } else {
      ZipfKeyConfig base;
      base.population = config_.key_population;
      base.s = config_.zipf_s;
      base.scatter = config_.baseline_scatter;
      base.hot_center = DiurnalHotCenter(at - traffic_start_, 0, config_.diurnal_period);
      key = SampleZipfKey(traffic.rng, base);
    }
    ++traffic.generated;
    ssim.Send(0, at - now, [this, region, key]() { OnArrival(region, key); });
  }
  engine.Schedule(window_, [this, region]() { GenerateWindow(region); });
}

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
  const uint64_t finished = ok + failed();
  return finished == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(finished);
}

double SloAccount::mean_ms() const {
  return ok == 0 ? 0.0 : static_cast<double>(latency_sum_us) / static_cast<double>(ok) / 1000.0;
}

void HotspotSim::OnArrival(int region, uint64_t key) {
  RegionSlo& slo = *slo_[static_cast<size_t>(region)];
  ++slo.run.sent;
  if (planner_ != nullptr) {
    planner_->ObserveKey(key);
  }
  const TimeMicros now = testbed_->sim().Now();
  const bool measured = now >= measure_begin_ && now < measure_end_;
  if (measured) {
    ++slo.hold.sent;
  }
  routers_[static_cast<size_t>(region)]->Route(
      key, RequestType::kRead, [this, region, measured](const RequestOutcome& outcome) {
        RegionSlo& slo = *slo_[static_cast<size_t>(region)];
        slo.run.Record(outcome, config_.slo_ms);
        if (measured) {
          slo.hold.Record(outcome, config_.slo_ms);
        }
      });
}

HotspotTotals HotspotSim::Totals() const {
  HotspotTotals totals;
  for (const auto& slo : slo_) {
    totals.run.Merge(slo->run);
    totals.hold.Merge(slo->hold);
  }
  const double hold_s = static_cast<double>(measure_end_ - measure_begin_) / 1e6;
  totals.hold_goodput_per_s = hold_s > 0.0 ? static_cast<double>(totals.hold.ok) / hold_s : 0.0;
  const Orchestrator& orchestrator = testbed_->orchestrator();
  totals.splits = orchestrator.splits();
  totals.merges = orchestrator.merges();
  totals.active_shards = orchestrator.active_shards();
  return totals;
}

uint64_t HotspotSim::StateDigest() const {
  uint64_t h = kFnvOffset;
  Mix(h, static_cast<uint64_t>(config_.regions));
  Mix(h, static_cast<uint64_t>(config_.sim_shards));
  Mix(h, config_.seed);
  Mix(h, static_cast<uint64_t>(testbed_->sharded_sim().Now()));
  // The final shard set: every slot's activity flag and key range, in id order. This is the
  // part a misordered split/merge commit would corrupt first.
  const Orchestrator& orchestrator = testbed_->orchestrator();
  Mix(h, static_cast<uint64_t>(orchestrator.num_shards()));
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    const ShardId shard(s);
    Mix(h, orchestrator.shard_active(shard) ? 1 : 0);
    Mix(h, orchestrator.shard_range(shard).begin);
    Mix(h, orchestrator.shard_range(shard).end);
  }
  Mix(h, static_cast<uint64_t>(orchestrator.splits()));
  Mix(h, static_cast<uint64_t>(orchestrator.merges()));
  for (size_t r = 0; r < slo_.size(); ++r) {
    Mix(h, traffic_[r]->generated);
    for (const SloAccount* account : {&slo_[r]->run, &slo_[r]->hold}) {
      Mix(h, account->sent);
      Mix(h, account->ok);
      Mix(h, account->slo_violations);
      Mix(h, account->latency_sum_us);
      for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        Mix(h, account->latency.bucket(b));
      }
      for (int code = 0; code < kStatusCodeCount; ++code) {
        Mix(h, account->failures.count(static_cast<StatusCode>(code)));
      }
    }
  }
  for (const auto& router : routers_) {
    Mix(h, router->map() != nullptr ? static_cast<uint64_t>(router->map()->version) : 0);
  }
  return h;
}

std::string HotspotSim::DigestReport() const {
  std::ostringstream os;
  const Orchestrator& orchestrator = testbed_->orchestrator();
  os << "now=" << testbed_->sharded_sim().Now() << " shards=" << orchestrator.num_shards()
     << " active=" << orchestrator.active_shards() << " splits=" << orchestrator.splits()
     << " merges=" << orchestrator.merges() << "\n";
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    const ShardId shard(s);
    os << "  shard " << s << (orchestrator.shard_active(shard) ? " active " : " retired ")
       << "[" << orchestrator.shard_range(shard).begin << ","
       << orchestrator.shard_range(shard).end << ")\n";
  }
  for (size_t r = 0; r < slo_.size(); ++r) {
    const SloAccount& run = slo_[r]->run;
    const SloAccount& hold = slo_[r]->hold;
    os << "  region " << r << " generated=" << traffic_[r]->generated
       << " sent=" << run.sent << " ok=" << run.ok << " failed=" << run.failed()
       << " violations=" << run.slo_violations << " latency_sum=" << run.latency_sum_us
       << " measured=" << hold.sent << " measure_violations=" << hold.slo_violations << "\n";
  }
  os << "digest=" << StateDigest() << "\n";
  return os.str();
}

void HotspotSim::ExportMetrics() const {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  const HotspotTotals totals = Totals();
  reg.GetGauge("sm.hotspot.sent")->Set(static_cast<double>(totals.run.sent));
  reg.GetGauge("sm.hotspot.ok")->Set(static_cast<double>(totals.run.ok));
  reg.GetGauge("sm.hotspot.failed")->Set(static_cast<double>(totals.run.failed()));
  // splits/merges are already in the registry as the orchestrator's sm.hotspot.* counters.
  reg.GetGauge("sm.hotspot.active_shards")->Set(static_cast<double>(totals.active_shards));
  // Latency gauges are over successful requests only.
  reg.GetGauge("sm.slo.violations")->Set(static_cast<double>(totals.run.slo_violations));
  reg.GetGauge("sm.slo.mean_ms")->Set(totals.run.mean_ms());
  reg.GetGauge("sm.slo.p99_ms")->Set(totals.run.PercentileMs(0.99));
  reg.GetGauge("sm.slo.p999_ms")->Set(totals.run.PercentileMs(0.999));
  reg.GetGauge("sm.slo.hold_violations")->Set(static_cast<double>(totals.hold.slo_violations));
  reg.GetGauge("sm.slo.hold_p99_ms")->Set(totals.hold.PercentileMs(0.99));
  reg.GetGauge("sm.slo.hold_p999_ms")->Set(totals.hold.PercentileMs(0.999));
  reg.GetGauge("sm.slo.hold_failure_rate")->Set(totals.hold.failure_rate());
  reg.GetGauge("sm.slo.hold_goodput_per_s")->Set(totals.hold_goodput_per_s);
  // The 64-bit digest split into exactly representable 32-bit halves.
  const uint64_t digest = StateDigest();
  reg.GetGauge("sm.hotspot.digest_hi")->Set(static_cast<double>(digest >> 32));
  reg.GetGauge("sm.hotspot.digest_lo")->Set(static_cast<double>(digest & 0xFFFFFFFFULL));
}

}  // namespace shardman
