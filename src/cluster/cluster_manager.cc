#include "src/cluster/cluster_manager.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace shardman {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStart:
      return "start";
    case OpKind::kStop:
      return "stop";
    case OpKind::kRestart:
      return "restart";
    case OpKind::kMove:
      return "move";
  }
  return "unknown";
}

ClusterManager::ClusterManager(Simulator* sim, const Topology* topology, RegionId region,
                               int32_t container_id_base, uint64_t seed)
    : sim_(sim),
      topology_(topology),
      region_(region),
      rng_(seed),
      next_container_(container_id_base) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(topology != nullptr);
  machines_ = topology_->MachinesInRegion(region);
}

MachineId ClusterManager::PickMachine() {
  SM_CHECK(!machines_.empty());
  MachineId m = machines_[next_machine_rr_ % machines_.size()];
  ++next_machine_rr_;
  return m;
}

ContainerId ClusterManager::NewContainer(AppId app, MachineId machine) {
  ContainerId id(next_container_++);
  ContainerRecord rec;
  rec.id = id;
  rec.app = app;
  rec.machine = machine;
  rec.state = ContainerState::kRunning;
  rec.generation = 1;
  containers_.emplace(id.value, rec);
  app_containers_[app.value].push_back(id);
  live_containers_.erase(app.value);
  return id;
}

void ClusterManager::SetState(ContainerRecord& rec, ContainerState state) {
  if ((rec.state == ContainerState::kStopped) != (state == ContainerState::kStopped)) {
    live_containers_.erase(rec.app.value);
  }
  rec.state = state;
}

Result<std::vector<ContainerId>> ClusterManager::CreateJob(AppId app, int num_containers) {
  if (app_containers_.count(app.value) > 0 && !app_containers_[app.value].empty()) {
    return AlreadyExistsError("job already exists for app " + std::to_string(app.value));
  }
  return AddContainers(app, num_containers);
}

Result<std::vector<ContainerId>> ClusterManager::AddContainers(AppId app, int num_containers) {
  if (num_containers <= 0) {
    return InvalidArgumentError("num_containers must be positive");
  }
  if (machines_.empty()) {
    return ResourceExhaustedError("no machines in region " + std::to_string(region_.value));
  }
  std::vector<ContainerId> created;
  created.reserve(static_cast<size_t>(num_containers));
  for (int i = 0; i < num_containers; ++i) {
    created.push_back(NewContainer(app, PickMachine()));
  }
  return created;
}

Status ClusterManager::RequestStop(ContainerId container) {
  auto it = containers_.find(container.value);
  if (it == containers_.end()) {
    return NotFoundError("unknown container");
  }
  AppId app = it->second.app;
  ContainerOp op;
  op.op_id = next_op_++;
  op.container = container;
  op.kind = OpKind::kStop;
  UpgradeState& state = upgrades_[app.value];
  if (state.max_concurrent == 0) {
    state.max_concurrent = 1;
  }
  state.pending.push_back(op);
  ScheduleNegotiate(app, Millis(1));
  return Status::Ok();
}

Status ClusterManager::RequestRestart(ContainerId container, TimeMicros downtime) {
  auto it = containers_.find(container.value);
  if (it == containers_.end()) {
    return NotFoundError("unknown container");
  }
  AppId app = it->second.app;
  ContainerOp op;
  op.op_id = next_op_++;
  op.container = container;
  op.kind = OpKind::kRestart;
  op.downtime = downtime;
  UpgradeState& state = upgrades_[app.value];
  if (state.max_concurrent == 0) {
    state.max_concurrent = 1;
  }
  state.pending.push_back(op);
  ScheduleNegotiate(app, Millis(1));
  return Status::Ok();
}

Status ClusterManager::RequestMove(ContainerId container, MachineId target,
                                   TimeMicros downtime) {
  auto it = containers_.find(container.value);
  if (it == containers_.end()) {
    return NotFoundError("unknown container");
  }
  bool target_in_region = false;
  for (MachineId machine : machines_) {
    if (machine == target) {
      target_in_region = true;
      break;
    }
  }
  if (!target_in_region) {
    return InvalidArgumentError("target machine not in this region");
  }
  AppId app = it->second.app;
  ContainerOp op;
  op.op_id = next_op_++;
  op.container = container;
  op.kind = OpKind::kMove;
  op.move_target = target;
  op.downtime = downtime;
  UpgradeState& state = upgrades_[app.value];
  if (state.max_concurrent == 0) {
    state.max_concurrent = 1;
  }
  state.pending.push_back(op);
  ScheduleNegotiate(app, Millis(1));
  return Status::Ok();
}

const std::vector<ContainerId>& ClusterManager::ContainersOf(AppId app) const {
  auto [live, missing] = live_containers_.try_emplace(app.value);
  if (missing) {
    auto it = app_containers_.find(app.value);
    if (it != app_containers_.end()) {
      for (ContainerId id : it->second) {
        if (container(id).state != ContainerState::kStopped) {
          live->second.push_back(id);
        }
      }
    }
  }
  return live->second;
}

bool ClusterManager::Owns(ContainerId id) const { return containers_.count(id.value) > 0; }

const ContainerRecord& ClusterManager::container(ContainerId id) const {
  auto it = containers_.find(id.value);
  SM_CHECK(it != containers_.end());
  return it->second;
}

bool ClusterManager::IsUp(ContainerId id) const {
  auto it = containers_.find(id.value);
  return it != containers_.end() && it->second.state == ContainerState::kRunning;
}

MachineId ClusterManager::MachineOf(ContainerId id) const { return container(id).machine; }

void ClusterManager::RegisterTaskController(AppId app, TaskControlHandler* handler) {
  SM_CHECK(handler != nullptr);
  controllers_[app.value] = handler;
}

void ClusterManager::UnregisterTaskController(AppId app) { controllers_.erase(app.value); }

void ClusterManager::AddLifecycleListener(AppId app, ContainerLifecycleListener listener) {
  listeners_[app.value].push_back(std::move(listener));
}

void ClusterManager::StartRollingUpgrade(AppId app, int max_concurrent,
                                         TimeMicros restart_downtime,
                                         std::function<void()> done) {
  SM_CHECK_GT(max_concurrent, 0);
  UpgradeState& state = upgrades_[app.value];
  state.max_concurrent = max_concurrent;
  state.done = std::move(done);
  for (ContainerId id : ContainersOf(app)) {
    ContainerOp op;
    op.op_id = next_op_++;
    op.container = id;
    op.kind = OpKind::kRestart;
    op.downtime = restart_downtime;
    state.pending.push_back(op);
  }
  ScheduleNegotiate(app, Millis(1));
}

bool ClusterManager::UpgradeInProgress(AppId app) const {
  auto it = upgrades_.find(app.value);
  return it != upgrades_.end() && (!it->second.pending.empty() || !it->second.in_flight.empty());
}

int ClusterManager::UpgradeRemaining(AppId app) const {
  auto it = upgrades_.find(app.value);
  if (it == upgrades_.end()) {
    return 0;
  }
  return static_cast<int>(it->second.pending.size() + it->second.in_flight.size());
}

void ClusterManager::ScheduleNegotiate(AppId app, TimeMicros delay) {
  auto it = upgrades_.find(app.value);
  if (it == upgrades_.end() || it->second.negotiate_scheduled) {
    return;
  }
  it->second.negotiate_scheduled = true;
  sim_->Schedule(delay, [this, app]() {
    auto state_it = upgrades_.find(app.value);
    if (state_it == upgrades_.end()) {
      return;
    }
    state_it->second.negotiate_scheduled = false;
    Negotiate(app);
  });
}

void ClusterManager::Negotiate(AppId app) {
  auto it = upgrades_.find(app.value);
  if (it == upgrades_.end()) {
    return;
  }
  UpgradeState& state = it->second;
  if (state.pending.empty()) {
    return;
  }
  int slots = state.max_concurrent - static_cast<int>(state.in_flight.size());
  if (slots <= 0) {
    return;  // FinishOp re-triggers negotiation.
  }

  std::vector<ContainerOp> pending_view(state.pending.begin(), state.pending.end());
  std::vector<int64_t> approved_ids;
  auto ctrl_it = controllers_.find(app.value);
  if (ctrl_it != controllers_.end()) {
    approved_ids = ctrl_it->second->OnPendingOps(this, app, pending_view);
  } else {
    // No TaskController registered: the CM proceeds on its own, bounded only by its
    // parallelism limit (this is the "no TaskController" ablation of Fig 17).
    for (const ContainerOp& op : pending_view) {
      approved_ids.push_back(op.op_id);
    }
  }

  std::vector<ContainerOp> to_execute;
  for (int64_t op_id : approved_ids) {
    if (static_cast<int>(to_execute.size()) >= slots) {
      break;
    }
    auto op_it = std::find_if(state.pending.begin(), state.pending.end(),
                              [op_id](const ContainerOp& op) { return op.op_id == op_id; });
    if (op_it == state.pending.end()) {
      continue;  // Approval for an op no longer pending; ignore.
    }
    to_execute.push_back(*op_it);
    state.pending.erase(op_it);
  }

  for (const ContainerOp& op : to_execute) {
    state.in_flight.insert(op.op_id);
    ExecuteOp(app, op);
  }

  if (!state.pending.empty()) {
    ScheduleNegotiate(app, negotiate_interval_);
  }
}

void ClusterManager::ExecuteOp(AppId app, const ContainerOp& op) {
  auto it = containers_.find(op.container.value);
  if (it == containers_.end()) {
    FinishOp(app, op);
    return;
  }
  ContainerRecord& rec = it->second;
  switch (op.kind) {
    case OpKind::kRestart: {
      if (rec.state != ContainerState::kRunning) {
        // Already down (e.g. overlapping failure); treat the restart as done when it returns.
        FinishOp(app, op);
        return;
      }
      SetState(rec, ContainerState::kRestarting);
      ++planned_restarts_;
      NotifyDown(op.container, /*planned=*/true);
      sim_->Schedule(op.downtime, [this, app, op]() {
        auto rec_it = containers_.find(op.container.value);
        if (rec_it != containers_.end() && rec_it->second.state == ContainerState::kRestarting) {
          SetState(rec_it->second, ContainerState::kRunning);
          ++rec_it->second.generation;
          NotifyUp(op.container);
        }
        FinishOp(app, op);
      });
      break;
    }
    case OpKind::kStop: {
      SetState(rec, ContainerState::kStopped);
      NotifyStopped(op.container);
      FinishOp(app, op);
      break;
    }
    case OpKind::kMove: {
      SetState(rec, ContainerState::kRestarting);
      ++planned_restarts_;
      NotifyDown(op.container, /*planned=*/true);
      sim_->Schedule(op.downtime, [this, app, op]() {
        auto rec_it = containers_.find(op.container.value);
        if (rec_it != containers_.end()) {
          rec_it->second.machine = op.move_target;
          SetState(rec_it->second, ContainerState::kRunning);
          ++rec_it->second.generation;
          NotifyUp(op.container);
        }
        FinishOp(app, op);
      });
      break;
    }
    case OpKind::kStart: {
      SetState(rec, ContainerState::kRunning);
      ++rec.generation;
      NotifyUp(op.container);
      FinishOp(app, op);
      break;
    }
  }
}

void ClusterManager::FinishOp(AppId app, ContainerOp op) {
  auto it = upgrades_.find(app.value);
  if (it != upgrades_.end()) {
    it->second.in_flight.erase(op.op_id);
    auto ctrl_it = controllers_.find(app.value);
    if (ctrl_it != controllers_.end()) {
      ctrl_it->second->OnOpFinished(this, app, op);
    }
    if (it->second.pending.empty() && it->second.in_flight.empty()) {
      if (it->second.done) {
        auto done = std::move(it->second.done);
        it->second.done = nullptr;
        done();
      }
    } else if (!it->second.pending.empty()) {
      ScheduleNegotiate(app, Millis(10));
    }
  }
}

void ClusterManager::NotifyDown(ContainerId id, bool planned) {
  auto it = containers_.find(id.value);
  if (it == containers_.end()) {
    return;
  }
  auto listeners_it = listeners_.find(it->second.app.value);
  if (listeners_it == listeners_.end()) {
    return;
  }
  for (const auto& listener : listeners_it->second) {
    if (listener.on_down) {
      listener.on_down(id, planned);
    }
  }
}

void ClusterManager::NotifyUp(ContainerId id) {
  auto it = containers_.find(id.value);
  if (it == containers_.end()) {
    return;
  }
  auto listeners_it = listeners_.find(it->second.app.value);
  if (listeners_it == listeners_.end()) {
    return;
  }
  for (const auto& listener : listeners_it->second) {
    if (listener.on_up) {
      listener.on_up(id);
    }
  }
}

void ClusterManager::NotifyStopped(ContainerId id) {
  auto it = containers_.find(id.value);
  if (it == containers_.end()) {
    return;
  }
  auto listeners_it = listeners_.find(it->second.app.value);
  if (listeners_it == listeners_.end()) {
    return;
  }
  for (const auto& listener : listeners_it->second) {
    if (listener.on_stopped) {
      listener.on_stopped(id);
    }
  }
}

void ClusterManager::FailContainer(ContainerId id, TimeMicros downtime) {
  auto it = containers_.find(id.value);
  if (it == containers_.end() || it->second.state == ContainerState::kStopped) {
    return;
  }
  if (it->second.state == ContainerState::kDown) {
    return;
  }
  SetState(it->second, ContainerState::kDown);
  ++unplanned_failures_;
  NotifyDown(id, /*planned=*/false);
  if (downtime >= 0) {
    sim_->Schedule(downtime, [this, id]() { RecoverContainer(id); });
  }
}

void ClusterManager::FailMachine(MachineId machine, TimeMicros downtime) {
  for (auto& [cid, rec] : containers_) {
    if (rec.machine == machine) {
      FailContainer(rec.id, downtime);
    }
  }
}

void ClusterManager::FailRegion(TimeMicros downtime) {
  std::vector<ContainerId> ids;
  for (auto& [cid, rec] : containers_) {
    ids.push_back(rec.id);
  }
  for (ContainerId id : ids) {
    FailContainer(id, downtime);
  }
}

void ClusterManager::RecoverContainer(ContainerId id) {
  auto it = containers_.find(id.value);
  if (it == containers_.end() || it->second.state != ContainerState::kDown) {
    return;
  }
  SetState(it->second, ContainerState::kRunning);
  ++it->second.generation;
  NotifyUp(id);
}

void ClusterManager::RecoverRegion() {
  std::vector<ContainerId> ids;
  for (auto& [cid, rec] : containers_) {
    if (rec.state == ContainerState::kDown) {
      ids.push_back(rec.id);
    }
  }
  for (ContainerId id : ids) {
    RecoverContainer(id);
  }
}

int64_t ClusterManager::ScheduleMaintenance(std::vector<MachineId> machines, TimeMicros start_in,
                                            TimeMicros duration, MaintenanceImpact impact,
                                            TimeMicros advance_notice) {
  SM_CHECK_GE(start_in, 0);
  SM_CHECK_GT(duration, 0);
  MaintenanceEvent event;
  event.event_id = next_maintenance_++;
  event.machines = std::move(machines);
  event.start = sim_->Now() + start_in;
  event.end = event.start + duration;
  event.impact = impact;

  TimeMicros notice_at = event.start - advance_notice;
  TimeMicros notice_delay = std::max<TimeMicros>(0, notice_at - sim_->Now());
  sim_->Schedule(notice_delay, [this, event]() {
    // Notify every registered controller whose app has containers on the affected machines.
    std::unordered_set<int32_t> affected_apps;
    for (const auto& [cid, rec] : containers_) {
      for (MachineId m : event.machines) {
        if (rec.machine == m) {
          affected_apps.insert(rec.app.value);
        }
      }
    }
    for (int32_t app : affected_apps) {
      auto it = controllers_.find(app);
      if (it != controllers_.end()) {
        it->second->OnMaintenanceScheduled(this, event);
      }
    }
  });
  sim_->ScheduleAt(event.start, [this, event]() { BeginMaintenance(event); });
  sim_->ScheduleAt(event.end, [this, event]() { EndMaintenance(event); });
  return event.event_id;
}

void ClusterManager::BeginMaintenance(const MaintenanceEvent& event) {
  for (MachineId m : event.machines) {
    for (auto& [cid, rec] : containers_) {
      if (rec.machine != m || rec.state == ContainerState::kStopped) {
        continue;
      }
      // All impact classes make the container unavailable for the window; the distinction
      // (state loss vs. network loss) matters to the application layer, which observes it via
      // generation bumps on recovery for the state-loss classes.
      if (rec.state == ContainerState::kRunning) {
        SetState(rec, ContainerState::kDown);
        NotifyDown(rec.id, /*planned=*/true);
      }
    }
  }
}

void ClusterManager::EndMaintenance(const MaintenanceEvent& event) {
  for (MachineId m : event.machines) {
    for (auto& [cid, rec] : containers_) {
      if (rec.machine != m || rec.state != ContainerState::kDown) {
        continue;
      }
      SetState(rec, ContainerState::kRunning);
      if (event.impact != MaintenanceImpact::kNetworkLoss) {
        ++rec.generation;
      }
      NotifyUp(rec.id);
    }
  }
}

}  // namespace shardman
