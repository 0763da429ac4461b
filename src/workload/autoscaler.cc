#include "src/workload/autoscaler.h"

#include "src/common/check.h"

namespace shardman {

ContainerAutoscaler::ContainerAutoscaler(Testbed* testbed, AutoscalerConfig config)
    : testbed_(testbed), config_(config) {
  SM_CHECK(testbed != nullptr);
  SM_CHECK_GT(config.step, 0);
  SM_CHECK_LT(config.low_watermark, config.high_watermark);
}

void ContainerAutoscaler::Start() {
  testbed_->sim().SchedulePeriodic(config_.interval, config_.interval, [this]() { RunOnce(); });
}

double ContainerAutoscaler::MeasureUtilization() const {
  ShardLoadReport report;
  double load = 0.0;
  double capacity = 0.0;
  for (ServerId id : testbed_->servers()) {
    const ServerHandle* handle = testbed_->registry().Get(id);
    if (handle == nullptr || !handle->alive || handle->api == nullptr) {
      continue;
    }
    capacity += handle->capacity.Total();
    handle->api->ReportLoads(report);
    for (const ShardLoadEntry& entry : report.entries) {
      load += entry.load.Total();
    }
  }
  return capacity > 0.0 ? load / capacity : 0.0;
}

int ContainerAutoscaler::RunOnce() {
  double utilization = MeasureUtilization();
  int servers = static_cast<int>(testbed_->servers().size());
  if (utilization > config_.high_watermark && servers < config_.max_servers) {
    int count = std::min(config_.step, config_.max_servers - servers);
    testbed_->ScaleOut(config_.region, count);
    ++scale_outs_;
    // New capacity is useless until shards spread onto it.
    testbed_->orchestrator().TriggerPeriodicAllocation();
    return count;
  }
  if (utilization < config_.low_watermark && servers > config_.min_servers) {
    // Arbitration with the split/merge planner (DESIGN.md §15): a split is placing child
    // replicas and a merge is lingering copies for stale-map clients — draining a server now
    // would race both (and the drained capacity may be exactly what the committing split needs).
    // Structural ops win; scale-in waits for the next interval.
    if (testbed_->orchestrator().structural_change_in_flight()) {
      ++holds_;
      return 0;
    }
    // Scale in the least-loaded live server via the negotiated stop path.
    ServerId victim;
    double victim_load = 0.0;
    ShardLoadReport report;
    for (ServerId id : testbed_->servers()) {
      const ServerHandle* handle = testbed_->registry().Get(id);
      if (handle == nullptr || !handle->alive || handle->api == nullptr) {
        continue;
      }
      double load = 0.0;
      handle->api->ReportLoads(report);
      for (const ShardLoadEntry& entry : report.entries) {
        load += entry.load.Total();
      }
      if (!victim.valid() || load < victim_load) {
        victim = id;
        victim_load = load;
      }
    }
    if (victim.valid() && testbed_->ScaleIn(victim).ok()) {
      ++scale_ins_;
      return -1;
    }
  }
  return 0;
}

}  // namespace shardman
