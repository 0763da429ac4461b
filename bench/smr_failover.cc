// Control-plane failover cost (DESIGN.md §11): client-observed availability and the
// leaderless window as a function of leader-kill rate, measured against the replicated
// orchestrator (ControlPlaneReplicaSet, 3 replicas over 3 regions) with a 40 rps open-loop
// Poisson client source.
//
// Each level runs the identical testbed + source with only the kill clock changed; level 0
// kills no leaders (the ceiling). Every level runs TWICE with the same seed and the two
// fingerprints must match byte-for-byte — the bench exits nonzero on divergence, making it a
// determinism gate as well as a perf curve. Writes BENCH_smr_failover.json into the working
// directory (shared schema, DESIGN.md §16).

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/invariant_checker.h"
#include "src/obs/obs.h"
#include "src/smr/replica_set.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct LevelResult {
  double kill_interval_s = 0.0;  // 0 = no kills
  int64_t kills = 0;
  int64_t failovers = 0;
  int64_t final_epoch = 0;
  double mean_leaderless_ms = 0.0;
  double max_leaderless_ms = 0.0;
  int64_t requests = 0;
  int64_t requests_lost = 0;
  double success_rate = 1.0;
  int64_t violations = 0;

  // Byte-exact textual identity of one run — the determinism fingerprint.
  std::string Fingerprint() const {
    std::ostringstream os;
    os << kill_interval_s << "|" << kills << "|" << failovers << "|" << final_epoch << "|"
       << mean_leaderless_ms << "|" << max_leaderless_ms << "|" << requests << "|"
       << requests_lost << "|" << success_rate << "|" << violations;
    return os.str();
  }
};

LevelResult RunLevel(double kill_interval_s, TimeMicros churn) {
  obs::DefaultMetrics().ResetValues();
  obs::DefaultTracer().Clear();
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "smrbench", 30,
                                  ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.smr.num_replicas = 3;
  config.seed = 404;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 40;
  traffic.seed = 405;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  InvariantChecker checker(&bed);
  checker.Start();

  // Rolling gray-failure churn: one server's session expires every 25s (reconnecting after
  // 12s), so the orchestrator always has failover work in flight and leader kills land in the
  // middle of real operations — the scenario the op-log reconciliation exists for.
  int churn_idx = 0;
  EventId churn_timer =
      bed.sim().SchedulePeriodic(Seconds(25), Seconds(25), [&bed, &checker, &churn_idx]() {
        std::vector<ServerId> servers = bed.servers();
        ServerId victim = servers[static_cast<size_t>(churn_idx++) % servers.size()];
        checker.PushUnplannedFault();
        bed.ExpireServerSession(victim, Seconds(12));
        bed.sim().Schedule(Seconds(14), [&checker]() { checker.PopUnplannedFault(); });
      });

  LevelResult result;
  result.kill_interval_s = kill_interval_s;
  EventId kill_timer;
  if (kill_interval_s > 0.0) {
    TimeMicros interval = static_cast<TimeMicros>(kill_interval_s * 1e6);
    kill_timer = bed.sim().SchedulePeriodic(interval, interval, [&bed, &result]() {
      if (bed.replica_set()->has_leader()) {
        ++result.kills;
        bed.replica_set()->KillLeader();
      }
    });
  }
  bed.sim().RunFor(churn);
  bed.sim().Cancel(churn_timer);
  if (kill_interval_s > 0.0) {
    bed.sim().Cancel(kill_timer);
  }
  bed.sim().RunFor(Minutes(2));  // the last failover completes before measurement closes
  checker.Stop();
  SM_CHECK(source.Drain(Minutes(1)));

  result.failovers = bed.replica_set()->failovers();
  result.final_epoch = bed.replica_set()->leadership_epoch();
  const std::vector<TimeMicros>& gaps = bed.replica_set()->leaderless_gaps();
  for (TimeMicros gap : gaps) {
    result.max_leaderless_ms = std::max(result.max_leaderless_ms, gap / 1000.0);
    result.mean_leaderless_ms += gap / 1000.0;
  }
  if (!gaps.empty()) {
    result.mean_leaderless_ms /= static_cast<double>(gaps.size());
  }
  result.requests = static_cast<int64_t>(source.totals().sent);
  result.requests_lost = static_cast<int64_t>(source.totals().failed());
  result.success_rate = source.totals().success_rate();
  result.violations = checker.total_violations();
  return result;
}

}  // namespace

int main() {
  PrintHeader("SMR control-plane failover",
              "client availability and leaderless window vs leader-kill rate over the "
              "replicated orchestrator (DESIGN.md §11); every level runs twice and must be "
              "byte-identical");

  double scale = BenchScale();
  TimeMicros churn = std::max(Minutes(1), static_cast<TimeMicros>(Minutes(4) * scale));
  const std::vector<double> levels = {0.0, 60.0, 30.0, 15.0};

  bool deterministic = true;
  std::vector<LevelResult> curve;
  TablePrinter table({"kill_interval_s", "kills", "failovers", "mean_leaderless_ms",
                      "max_leaderless_ms", "success_rate", "lost", "violations", "replay"});
  for (double level : levels) {
    LevelResult first = RunLevel(level, churn);
    LevelResult second = RunLevel(level, churn);
    bool identical = first.Fingerprint() == second.Fingerprint();
    if (!identical) {
      deterministic = false;
      std::cerr << "DETERMINISM FAILURE at kill_interval_s=" << level << "\n  run1: "
                << first.Fingerprint() << "\n  run2: " << second.Fingerprint() << "\n";
    }
    curve.push_back(first);
    table.AddRowValues(level == 0.0 ? std::string("none") : FormatDouble(level, 0), first.kills,
                       first.failovers, FormatDouble(first.mean_leaderless_ms, 1),
                       FormatDouble(first.max_leaderless_ms, 1),
                       FormatDouble(first.success_rate, 4), first.requests_lost,
                       first.violations, identical ? "identical" : "DIVERGED");
  }
  table.Print(std::cout);

  BenchJson json("smr_failover", scale);
  json.MeasureFlag("deterministic", deterministic);
  json.Require("deterministic");
  for (const LevelResult& p : curve) {
    const std::string point = "kill_interval_s=" + FormatDouble(p.kill_interval_s, 0) + "/";
    json.Measure(point + "kills", p.kills);
    json.Measure(point + "failovers", p.failovers);
    json.Measure(point + "final_epoch", p.final_epoch);
    json.Measure(point + "mean_leaderless_ms", p.mean_leaderless_ms);
    json.Measure(point + "max_leaderless_ms", p.max_leaderless_ms);
    json.Measure(point + "requests", p.requests);
    json.Measure(point + "requests_lost", p.requests_lost);
    json.Measure(point + "success_rate", p.success_rate);
    json.Measure(point + "violations", p.violations);
    json.Gate({.metric = point + "success_rate", .tolerance = kBenchTolerance});
    json.Gate({.metric = point + "mean_leaderless_ms", .direction = "lower",
               .tolerance = kBenchTolerance});
    json.Gate({.metric = point + "max_leaderless_ms", .direction = "lower",
               .tolerance = kBenchTolerance});
    json.Gate({.metric = point + "violations", .direction = "lower", .bound = "0"});
  }
  json.Write();

  if (!deterministic) {
    std::cerr << "\nFAIL: same-seed replay diverged — the failover path is nondeterministic.\n";
    return 1;
  }
  return 0;
}
