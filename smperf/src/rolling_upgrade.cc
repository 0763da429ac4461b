// rolling_upgrade: the control-plane workload. Fig. 17's SM configuration at the paper's fleet
// size: 1 region, 60 servers, 3,000 primary-only shards, up to 10% of containers (6)
// restarting at once, primaries drained first and moved by graceful migration, 30 s restart
// downtime. Open-loop probe traffic (200 rps, half writes) goes through the same request
// recorder as hotspot_flash. The measured phase runs from upgrade start until no container is
// still upgrading, plus a tail; the upgrade's simulated span is capped so a stalled upgrade
// ends the run as a failed operation instead of hanging it.

#include <algorithm>
#include <memory>

#include "smperf/src/common.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/workload/testbed.h"

namespace smperf {

using namespace shardman;

namespace {

struct Scenario {
  int servers = 60;
  int shards = 3000;
  int max_concurrent_restarts = 6;
  TimeMicros restart_downtime = Seconds(30);
  double probe_rps = 200.0;
  double write_fraction = 0.5;
  TimeMicros settle = Seconds(10);   // after readiness, before traffic
  TimeMicros warmup = Seconds(20);   // probe traffic before the upgrade starts
  TimeMicros tail = Seconds(90);     // after the upgrade completes
  TimeMicros upgrade_cap = Seconds(3600);
};

// Open-loop Poisson probe traffic on the control shard: each arrival is sent at its due time
// and schedules the next.
class ProbeTraffic {
 public:
  ProbeTraffic(Testbed* bed, ServiceRouter* router, RequestRecorder* recorder, double rps,
               double write_fraction, uint64_t seed)
      : bed_(bed),
        router_(router),
        recorder_(recorder),
        mean_gap_us_(1e6 / rps),
        write_fraction_(write_fraction),
        rng_(seed ^ 0x55504752414445ULL) {}

  void Start() { ScheduleNext(); }
  void Stop() { running_ = false; }

 private:
  void ScheduleNext() {
    const TimeMicros gap =
        std::max<TimeMicros>(1, static_cast<TimeMicros>(rng_.Exponential(mean_gap_us_)));
    bed_->sim().Schedule(gap, [this]() {
      if (!running_) {
        return;
      }
      const uint64_t key = rng_.Next();
      const RequestType type =
          rng_.Uniform() < write_fraction_ ? RequestType::kWrite : RequestType::kRead;
      recorder_->Send(*router_, key, type, bed_->sim().Now());
      ScheduleNext();
    });
  }

  Testbed* bed_;
  ServiceRouter* router_;
  RequestRecorder* recorder_;
  double mean_gap_us_;
  double write_fraction_;
  Rng rng_;
  bool running_ = true;
};

}  // namespace

void RunRollingUpgrade(const Options& options, Report& report) {
  Scenario scenario;
  if (options.small) {
    scenario.servers = 24;
    scenario.shards = 1200;
    scenario.max_concurrent_restarts = 3;
  }

  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = scenario.servers;
  config.app = MakeUniformAppSpec(AppId(1), "upgrade", scenario.shards,
                                  ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.placement.max_concurrent_moves_per_app = 64;
  config.app.caps.max_concurrent_ops_fraction = 0.10;
  config.app.graceful_migration = true;
  config.app.drain.drain_primaries = true;
  config.mini_sm.register_task_controller = true;
  config.delta_dissemination = true;
  config.seed = options.seed;

  // ---- set-up: stack build, start, readiness, settle, probe warm-up ----
  std::unique_ptr<Testbed> bed;
  {
    ScopedSpan span("core.testbed_build");
    bed = std::make_unique<Testbed>(config);
  }
  {
    ScopedSpan span("core.start");
    bed->Start();
  }
  bool ready = false;
  {
    ScopedSpan span("sim.run_until_ready");
    ready = bed->RunUntilAllReady(Minutes(10));
  }
  report.Expect("upgrade.ready", ready);
  if (!ready) {
    return;
  }
  ShardedSimulator& ssim = bed->sharded_sim();
  {
    ScopedSpan span("sim.run_for");
    ssim.RunFor(scenario.settle);
  }
  std::unique_ptr<ServiceRouter> router = bed->CreateRouter(RegionId(0));
  RequestRecorder recorder(/*slo_ms=*/100.0);
  ProbeTraffic probe(bed.get(), router.get(), &recorder, scenario.probe_rps,
                     scenario.write_fraction, options.seed);
  probe.Start();
  {
    ScopedSpan span("sim.run_for");
    ssim.RunFor(scenario.warmup);
  }

  // ---- measured phase: the upgrade, then the tail ----
  const obs::MetricsSnapshot before = obs::DefaultMetrics().Snapshot();
  const uint64_t events_before = ssim.ExecutedEvents();
  const uint64_t net_before = bed->network().messages_sent();
  const int64_t attempts_before = router->requests_sent();
  const TimeMicros upgrade_start = ssim.Now();
  recorder.set_measure_from(upgrade_start);
  const int64_t measure_start_ns = WallNs();
  report.timing["setup_s"] = static_cast<double>(measure_start_ns - options.process_start_ns) / 1e9;

  // Every step of the measured phase is timed on its own (Report::steps_ms).
  auto run_step = [&](TimeMicros span_us) {
    const int64_t step_start_ns = WallNs();
    {
      ScopedSpan span("sim.run_for");
      ssim.RunFor(span_us);
    }
    report.steps_ms.push_back(static_cast<double>(WallNs() - step_start_ns) / 1e6);
  };
  {
    ScopedSpan span("cluster.start_rolling_upgrade");
    bed->StartRollingUpgradeEverywhere(scenario.max_concurrent_restarts,
                                       scenario.restart_downtime);
  }
  double pending_sum = 0.0;
  int64_t pending_samples = 0;
  bool completed = false;
  TimeMicros upgrade_end = upgrade_start;
  while (ssim.Now() - upgrade_start < scenario.upgrade_cap) {
    run_step(Seconds(1));
    pending_sum += bed->orchestrator().pending_ops();
    ++pending_samples;
    if (!bed->UpgradeInProgress()) {
      completed = true;
      upgrade_end = ssim.Now();
      break;
    }
  }
  for (TimeMicros t = 0; t < scenario.tail; t += Seconds(1)) {
    run_step(Seconds(1));
  }
  probe.Stop();
  run_step(Seconds(5));  // in-flight probes finish

  const int64_t measure_ns = WallNs() - measure_start_ns;
  const TimeMicros sim_span = ssim.Now() - upgrade_start;
  report.timing["unit_wall_ms"] = static_cast<double>(measure_ns) / 1e6;
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Delta(before, obs::DefaultMetrics().Snapshot());

  // ---- outcomes and checks ----
  report.Expect("upgrade.completes_within_cap", completed,
                "cap " + std::to_string(ToSeconds(scenario.upgrade_cap)) + " s simulated");
  const Orchestrator& orchestrator = bed->orchestrator();
  int without_primary = 0;
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    const ShardId shard(s);
    bool ready_primary = false;
    for (int r = 0; r < orchestrator.ReplicaCount(shard); ++r) {
      ready_primary |= orchestrator.replica_role(shard, r) == ReplicaRole::kPrimary &&
                       orchestrator.replica_phase(shard, r) == ReplicaPhase::kReady;
    }
    without_primary += ready_primary ? 0 : 1;
  }
  report.Expect("upgrade.every_shard_has_ready_primary", without_primary == 0,
                std::to_string(without_primary) + " shards without a ready primary");
  AddRequestMetrics(recorder, report);
  AddStackMetrics(*bed, delta, report);
  auto& exact = report.exact;
  exact["upgrade_sim_s"] = ToSeconds(upgrade_end - upgrade_start);
  exact["sim_s"] = ToSeconds(sim_span);

  const uint64_t events = ssim.ExecutedEvents() - events_before;
  exact["sim.events"] = static_cast<double>(events);
  exact["sim.net_messages"] = static_cast<double>(bed->network().messages_sent() - net_before);
  report.timing["sim.ns_per_event"] = static_cast<double>(measure_ns) / static_cast<double>(events);

  exact["routing.attempts_per_request"] =
      static_cast<double>(router->requests_sent() - attempts_before) / exact["requests"];
  exact["core.pending_ops_mean"] =
      pending_samples > 0 ? pending_sum / static_cast<double>(pending_samples) : 0.0;

  if (options.trace) {
    AddPostRunProbes(*bed, *router, options.seed, report);
  }
}

}  // namespace smperf
