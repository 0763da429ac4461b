#include "src/workload/hotspot_sim.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace shardman {
namespace {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

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
}

HotspotSim::~HotspotSim() = default;

void HotspotSim::Run(TimeMicros duration) {
  SM_CHECK(!started_);
  started_ = true;
  testbed_->Start();
  SM_CHECK(testbed_->RunUntilAllReady(Minutes(5)));

  Rng master(config_.seed ^ 0x48'4F'54'53'50'4F'54ULL);  // "HOTSPOT"
  for (int r = 0; r < config_.regions; ++r) {
    RequestSourceConfig traffic = config_.traffic;
    traffic.seed = master.Next();
    sources_.push_back(std::make_unique<RequestSource>(testbed_.get(), RegionId(r), traffic));
  }
  if (config_.adaptive) {
    SplitMergePlannerConfig pcfg = config_.planner;
    pcfg.max_shards = std::min(pcfg.max_shards, config_.max_shards);
    const int app_slot = testbed_->accounting().AppSlot(testbed_->spec().id);
    planner_ = std::make_unique<SplitMergePlanner>(&testbed_->sim(), &testbed_->orchestrator(),
                                                   &testbed_->accounting(), app_slot, pcfg);
    planner_->Start();
  }

  // The flash schedule runs on time since traffic starts: bringing the testbed to readiness
  // consumes sim time, and the scenario must not depend on how much.
  ShardedSimulator& ssim = testbed_->sharded_sim();
  const TimeMicros start = ssim.Now();
  const TimeMicros flash_held = start + config_.traffic.flash_start + config_.traffic.flash_rise;
  measure_begin_ = flash_held + config_.measure_grace;
  measure_end_ = flash_held + config_.traffic.flash_hold;
  for (auto& source : sources_) {
    source->recorder().AddSlice(measure_begin_, measure_end_);
    source->set_key_observer(planner_.get());
    source->Start();
    source->StopAt(start + duration);
  }
  ssim.RunFor(duration);
}

HotspotTotals HotspotSim::Totals() const {
  HotspotTotals totals;
  for (const auto& source : sources_) {
    totals.run.Merge(source->recorder().total());
    totals.hold.Merge(source->recorder().slice(0));
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
  for (const auto& source : sources_) {
    Mix(h, source->generated());
    const SloRecorder& recorder = source->recorder();
    for (const SloAccount* account : {&recorder.total(), &recorder.slice(0)}) {
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
  for (const auto& source : sources_) {
    const ShardMap* map = source->router().map();
    Mix(h, map != nullptr ? static_cast<uint64_t>(map->version) : 0);
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
  for (size_t r = 0; r < sources_.size(); ++r) {
    const SloAccount& run = sources_[r]->recorder().total();
    const SloAccount& hold = sources_[r]->recorder().slice(0);
    os << "  region " << r << " generated=" << sources_[r]->generated()
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
