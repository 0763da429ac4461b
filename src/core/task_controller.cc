#include "src/core/task_controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/obs.h"

namespace shardman {

SmTaskController::SmTaskController(Simulator* sim, Orchestrator* orchestrator,
                                   ServerRegistry* registry, const AppSpec& spec)
    : sim_(sim), orchestrator_(orchestrator), registry_(registry), spec_(spec) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(orchestrator != nullptr);
  SM_CHECK(registry != nullptr);
}

int SmTaskController::TotalContainers() const {
  int total = 0;
  for (ClusterManager* cm : cluster_managers_) {
    total += static_cast<int>(cm->ContainersOf(spec_.id).size());
  }
  return total;
}

int SmTaskController::UnplannedDownContainers() const {
  int down = 0;
  for (ClusterManager* cm : cluster_managers_) {
    for (ContainerId id : cm->ContainersOf(spec_.id)) {
      if (cm->container(id).state == ContainerState::kDown &&
          in_flight_.count(id.value) == 0) {
        ++down;
      }
    }
  }
  return down;
}

bool SmTaskController::IsUnplannedDown(ContainerId container) const {
  for (ClusterManager* cm : cluster_managers_) {
    if (cm->Owns(container)) {
      return cm->container(container).state == ContainerState::kDown;
    }
  }
  return false;
}

int SmTaskController::DrainSlots() const {
  int held = 0;
  for (const auto& entry : drain_phase_) {
    const int32_t container = entry.first;
    if (in_flight_.count(container) == 0 && !IsUnplannedDown(ContainerId(container))) {
      ++held;
    }
  }
  return held;
}

void SmTaskController::ReleaseAbandonedDrains(ClusterManager* cm,
                                              const std::vector<ContainerOp>& pending) {
  for (auto it = drain_phase_.begin(); it != drain_phase_.end();) {
    const ContainerId container(it->first);
    const bool still_pending =
        std::any_of(pending.begin(), pending.end(),
                    [container](const ContainerOp& op) { return op.container == container; });
    if (in_flight_.count(it->first) > 0 || still_pending || !cm->Owns(container)) {
      ++it;
      continue;
    }
    ServerHandle* server = registry_->GetByContainer(container);
    if (server != nullptr) {
      orchestrator_->CancelDrain(server->id);
    }
    it = drain_phase_.erase(it);
  }
}

bool SmTaskController::NeedsDrain(const ServerHandle& server) const {
  return orchestrator_->HostsRole(server.id, spec_.drain.drain_primaries,
                                  spec_.drain.drain_secondaries);
}

std::vector<int64_t> SmTaskController::OnPendingOps(ClusterManager* cm, AppId app,
                                                    const std::vector<ContainerOp>& pending) {
  SM_CHECK(app == spec_.id);
  std::vector<int64_t> approved;

  // Telemetry: each pending op gets a negotiation record on first sight (opens the trace span
  // that ends at approval) and counts a deferral every round it is held back.
  auto note_pending = [this](const ContainerOp& op) -> Negotiation& {
    auto [it, inserted] = negotiations_.emplace(op.op_id, Negotiation{});
    if (inserted) {
      it->second.first_seen = sim_->Now();
      it->second.trace = obs::DefaultTracer().NewTrace();
      SM_TRACE_BEGIN(it->second.trace, "taskcontrol", "negotiate",
                     obs::Arg("container", static_cast<int64_t>(op.container.value)));
    }
    return it->second;
  };
  auto record_approval = [this](const ContainerOp& op) {
    auto it = negotiations_.find(op.op_id);
    if (it != negotiations_.end()) {
      SM_COUNTER_INC("sm.taskcontrol.approvals");
      SM_HISTOGRAM_OBSERVE("sm.taskcontrol.approval_delay_ms",
                           ToMillis(sim_->Now() - it->second.first_seen));
      SM_TRACE_END(it->second.trace, "taskcontrol", "negotiate",
                   obs::Arg("container", static_cast<int64_t>(op.container.value)));
      negotiations_.erase(it);
    }
  };
  auto record_deferral = [](const ContainerOp& op) {
    (void)op;
    SM_COUNTER_INC("sm.taskcontrol.deferrals");
  };

  ReleaseAbandonedDrains(cm, pending);

  const int total = std::max(1, TotalContainers());
  int global_cap = std::max(
      1, static_cast<int>(spec_.caps.max_concurrent_ops_fraction * static_cast<double>(total)));
  // Containers already down from unplanned outage consume budget (§4.1: the caps "account for
  // the containers and shard replicas that are already unavailable"), and so do containers
  // whose drain has started: a drain moves the container's load away as surely as a restart.
  int budget = global_cap - static_cast<int>(in_flight_.size()) - UnplannedDownContainers() -
               DrainSlots();

  // Per-round tentative approvals also count toward the per-shard cap.
  std::unordered_map<int32_t, int> round_unavailable;

  for (const ContainerOp& op : pending) {
    // A started drain already holds this container's slot; approval turns it into the
    // in-flight slot, so only containers without one need budget.
    const bool holds_slot = drain_phase_.count(op.container.value) > 0;
    if (budget <= 0 && !holds_slot) {
      continue;
    }
    note_pending(op);
    ServerHandle* server = registry_->GetByContainer(op.container);
    if (server == nullptr) {
      // No application server in this container (e.g. already deregistered): nothing to protect.
      approved.push_back(op.op_id);
      if (!holds_slot) {
        --budget;
      }
      in_flight_.insert(op.container.value);
      ++approvals_;
      record_approval(op);
      continue;
    }

    // Drain-before-restart (§2.2.5).
    if (NeedsDrain(*server)) {
      auto phase_it = drain_phase_.find(op.container.value);
      DrainPhase phase =
          phase_it == drain_phase_.end() ? DrainPhase::kNotStarted : phase_it->second;
      if (phase == DrainPhase::kNotStarted) {
        drain_phase_[op.container.value] = DrainPhase::kInProgress;
        ContainerId container = op.container;
        orchestrator_->DrainServer(server->id, spec_.drain.drain_primaries,
                                   spec_.drain.drain_secondaries, [this, container]() {
                                     drain_phase_[container.value] = DrainPhase::kDone;
                                   });
        if (!IsUnplannedDown(op.container)) {
          --budget;  // a container down unplanned already holds its slot
        }
        ++deferrals_;
        record_deferral(op);
        continue;  // Approve in a later round, once drained.
      }
      if (phase == DrainPhase::kInProgress) {
        ++deferrals_;
        record_deferral(op);
        continue;
      }
      // kDone falls through to the cap checks below.
    }

    // Per-shard cap over whatever replicas remain on the container.
    bool safe = true;
    std::vector<int32_t> impacted;
    for (const auto& [shard, role] : orchestrator_->ReplicasOn(server->id)) {
      int unavailable = orchestrator_->UnavailableReplicas(shard);
      auto planned_it = planned_unavailable_.find(shard.value);
      if (planned_it != planned_unavailable_.end()) {
        unavailable += planned_it->second;
      }
      auto round_it = round_unavailable.find(shard.value);
      if (round_it != round_unavailable.end()) {
        unavailable += round_it->second;
      }
      if (unavailable + 1 > spec_.caps.max_unavailable_per_shard) {
        safe = false;
        break;
      }
      impacted.push_back(shard.value);
    }
    if (!safe) {
      ++deferrals_;
      record_deferral(op);
      continue;
    }

    approved.push_back(op.op_id);
    if (!holds_slot) {
      --budget;
    }
    ++approvals_;
    record_approval(op);
    in_flight_.insert(op.container.value);
    impact_[op.container.value] = impacted;
    for (int32_t shard : impacted) {
      ++planned_unavailable_[shard];
      ++round_unavailable[shard];
    }
  }
  return approved;
}

void SmTaskController::OnOpFinished(ClusterManager* cm, AppId app, const ContainerOp& op) {
  (void)cm;
  SM_CHECK(app == spec_.id);
  in_flight_.erase(op.container.value);
  drain_phase_.erase(op.container.value);
  auto impact_it = impact_.find(op.container.value);
  if (impact_it != impact_.end()) {
    for (int32_t shard : impact_it->second) {
      auto planned_it = planned_unavailable_.find(shard);
      if (planned_it != planned_unavailable_.end() && --planned_it->second <= 0) {
        planned_unavailable_.erase(planned_it);
      }
    }
    impact_.erase(impact_it);
  }
  // Allow the load balancer to move shards back onto the upgraded container.
  ServerHandle* server = registry_->GetByContainer(op.container);
  if (server != nullptr) {
    orchestrator_->CancelDrain(server->id);
  }
}

void SmTaskController::OnMaintenanceScheduled(ClusterManager* cm, const MaintenanceEvent& event) {
  // Non-negotiable events (§4.2): prepare proactively. Short network-loss events demote
  // primaries in place; state-loss events drain according to the app's policy, with primaries
  // always drained (they cannot be demoted away on a primary-only app, so they are moved).
  for (MachineId machine : event.machines) {
    for (ContainerId container : cm->ContainersOf(spec_.id)) {
      if (cm->MachineOf(container) != machine) {
        continue;
      }
      ServerHandle* server = registry_->GetByContainer(container);
      if (server == nullptr) {
        continue;
      }
      if (event.impact == MaintenanceImpact::kNetworkLoss &&
          spec_.strategy == ReplicationStrategy::kPrimarySecondary) {
        orchestrator_->DemotePrimariesOn(server->id);
      } else {
        orchestrator_->DrainServer(server->id, /*drain_primaries=*/true,
                                   spec_.drain.drain_secondaries, []() {});
      }
    }
  }
}

}  // namespace shardman
