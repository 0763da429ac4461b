#include "src/smr/replica_set.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"
#include "src/smr/quorum_placement.h"

namespace shardman {

ControlPlaneReplicaSet::ControlPlaneReplicaSet(Simulator* sim, Network* network,
                                               CoordStore* coord, ServiceDiscovery* discovery,
                                               ServerRegistry* registry,
                                               std::vector<ClusterManager*> cluster_managers,
                                               AppSpec spec, MiniSmConfig base, SmrConfig smr)
    : sim_(sim),
      network_(network),
      coord_(coord),
      discovery_(discovery),
      registry_(registry),
      cluster_managers_(std::move(cluster_managers)),
      app_spec_(std::move(spec)),
      base_(base),
      smr_(std::move(smr)),
      allocator_(base.allocator),
      op_log_(coord, app_spec_.name) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(network != nullptr);
  SM_CHECK(coord != nullptr);
  SM_CHECK(discovery != nullptr);
  SM_CHECK(registry != nullptr);
  std::vector<RegionId> sites = smr_.replica_regions;
  if (sites.empty()) {
    const LatencyModel& latency = network_->latency_model();
    int n = std::max(1, std::min(smr_.num_replicas, latency.num_regions()));
    sites = BestQuorumPlacement(latency, n).members;
  }
  for (size_t i = 0; i < sites.size(); ++i) {
    auto replica = std::make_unique<Replica>();
    replica->name = app_spec_.name + "/smr-" + std::to_string(i);
    replica->region = sites[i];
    replica->lease = std::make_unique<LeaderLease>(sim_, coord_, app_spec_.name, replica->name,
                                                   smr_.lease);
    replicas_.push_back(std::move(replica));
  }
}

ControlPlaneReplicaSet::~ControlPlaneReplicaSet() { Stop(); }

void ControlPlaneReplicaSet::Start() {
  SM_CHECK(!started_);
  SM_CHECK_OK(app_spec_.Validate());
  started_ = true;
  const AppId app = app_spec_.id;
  for (ClusterManager* cm : cluster_managers_) {
    SM_CHECK(cm != nullptr);
    // Listeners are registered exactly once and route through the replica set, so leadership
    // changes never leave dangling callbacks in the cluster managers. Events seen while no
    // leader is elected are buffered and replayed to the next leader after reconciliation.
    ContainerLifecycleListener listener;
    listener.on_down = [this](ContainerId container, bool planned) {
      Dispatch({BufferedEvent::kDown, container, planned});
    };
    listener.on_up = [this](ContainerId container) {
      Dispatch({BufferedEvent::kUp, container, false});
    };
    listener.on_stopped = [this](ContainerId container) {
      Dispatch({BufferedEvent::kStopped, container, false});
    };
    cm->AddLifecycleListener(app, std::move(listener));
  }
  for (std::unique_ptr<Replica>& replica : replicas_) {
    StartReplica(replica.get());
  }
}

void ControlPlaneReplicaSet::StartReplica(Replica* replica) {
  replica->lease->Start([this, replica]() { OnLeaseAcquired(replica); },
                        [this, replica]() { OnLeaseLost(replica); });
}

void ControlPlaneReplicaSet::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  if (active_ != nullptr && active_->orchestrator != nullptr) {
    active_->orchestrator->BeginHandoff(nullptr);
  }
  active_ = nullptr;
  for (std::unique_ptr<Replica>& replica : replicas_) {
    replica->lease->Stop();
  }
}

void ControlPlaneReplicaSet::OnLeaseAcquired(Replica* replica) {
  if (stopped_ || replica->removed) {
    return;
  }
  const int64_t epoch = replica->lease->epoch();
  if (gap_open_) {
    TimeMicros gap = sim_->Now() - gap_start_;
    gap_open_ = false;
    gaps_.push_back(gap);
    SM_HISTOGRAM_OBSERVE("sm.smr.failover_ms", static_cast<double>(gap) / 1000.0);
  }
  OrchestratorConfig config = base_.orchestrator;
  config.leadership_epoch = epoch;
  config.write_fence = LeaderLease::MakeWriteFence(coord_, app_spec_.name);
  config.op_log_append = [this](const PlacementOpRecord& record) {
    return op_log_.Append(record);
  };
  config.op_log_complete = [this](int64_t seq) { op_log_.Complete(seq); };
  replica->orchestrator = std::make_unique<Orchestrator>(sim_, network_, coord_, discovery_,
                                                         registry_, &allocator_, app_spec_,
                                                         replica->region, config);
  replica->task_controller = std::make_unique<SmTaskController>(
      sim_, replica->orchestrator.get(), registry_, replica->orchestrator->spec());
  const AppId app = app_spec_.id;
  for (ClusterManager* cm : cluster_managers_) {
    replica->task_controller->TrackClusterManager(cm);
    if (base_.register_task_controller) {
      // RegisterTaskController overwrites: each leadership term re-points the cluster managers
      // at the live controller.
      cm->RegisterTaskController(app, replica->task_controller.get());
    }
  }
  last_epoch_ = epoch;
  SM_GAUGE_SET("sm.smr.leadership_epoch", epoch);
  if (first_takeover_) {
    first_takeover_ = false;
    replica->orchestrator->Start();
  } else {
    ++failovers_;
    SM_COUNTER_INC("sm.smr.failovers");
    replica->orchestrator->StartReconciled(op_log_.IncompleteTail());
    // The tail is consumed; from here the log describes only this leader's in-flight ops.
    op_log_.Clear();
  }
  active_ = replica;
  current_ = replica->orchestrator.get();
  current_tc_ = replica->task_controller.get();
  std::vector<BufferedEvent> replay;
  replay.swap(buffered_);
  for (const BufferedEvent& event : replay) {
    Deliver(current_, event);
  }
}

void ControlPlaneReplicaSet::OnLeaseLost(Replica* replica) {
  if (active_ == replica) {
    active_ = nullptr;
    gap_open_ = true;
    gap_start_ = sim_->Now();
  }
  RetireOrchestrator(replica);
}

void ControlPlaneReplicaSet::RetireOrchestrator(Replica* replica) {
  if (replica->orchestrator == nullptr) {
    return;
  }
  // Fence and drain the deposed instance, then keep it alive (inert) until set destruction:
  // its in-flight RPC completions and the retry/linger callbacks it already cancelled must
  // never dangle. `current_` may keep pointing at it so introspection works across the gap.
  replica->orchestrator->BeginHandoff(nullptr);
  retired_.push_back({std::move(replica->orchestrator), std::move(replica->task_controller)});
}

void ControlPlaneReplicaSet::Dispatch(BufferedEvent event) {
  if (active_ == nullptr) {
    buffered_.push_back(event);
    return;
  }
  Deliver(active_->orchestrator.get(), event);
}

void ControlPlaneReplicaSet::Deliver(Orchestrator* orchestrator, const BufferedEvent& event) {
  ServerHandle* server = registry_->GetByContainer(event.container);
  if (server == nullptr || orchestrator == nullptr) {
    return;
  }
  switch (event.kind) {
    case BufferedEvent::kDown:
      orchestrator->OnServerDown(server->id, event.planned);
      break;
    case BufferedEvent::kUp:
      orchestrator->OnServerUp(server->id);
      break;
    case BufferedEvent::kStopped:
      orchestrator->OnServerStopped(server->id);
      break;
  }
}

Orchestrator& ControlPlaneReplicaSet::orchestrator() {
  SM_CHECK(current_ != nullptr);
  return *current_;
}

const Orchestrator& ControlPlaneReplicaSet::orchestrator() const {
  SM_CHECK(current_ != nullptr);
  return *current_;
}

SmTaskController* ControlPlaneReplicaSet::task_controller() { return current_tc_; }

int ControlPlaneReplicaSet::leader_index() const {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].get() == active_) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int ControlPlaneReplicaSet::num_replicas() const {
  int n = 0;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    if (!replica->removed) {
      ++n;
    }
  }
  return n;
}

RegionId ControlPlaneReplicaSet::replica_region(int index) const {
  SM_CHECK_GE(index, 0);
  SM_CHECK_LT(index, static_cast<int>(replicas_.size()));
  return replicas_[static_cast<size_t>(index)]->region;
}

LeaderLease* ControlPlaneReplicaSet::lease(int index) {
  SM_CHECK_GE(index, 0);
  SM_CHECK_LT(index, static_cast<int>(replicas_.size()));
  return replicas_[static_cast<size_t>(index)]->lease.get();
}

void ControlPlaneReplicaSet::KillLeader() {
  if (active_ == nullptr) {
    return;
  }
  SM_COUNTER_INC("sm.smr.leader_kills");
  // Loss is observed through the ephemeral node deletion watch, exactly like a real crash.
  active_->lease->ExpireSession();
}

int ControlPlaneReplicaSet::AddReplica(RegionId region) {
  auto replica = std::make_unique<Replica>();
  replica->name = app_spec_.name + "/smr-" + std::to_string(replicas_.size());
  replica->region = region;
  replica->lease = std::make_unique<LeaderLease>(sim_, coord_, app_spec_.name, replica->name,
                                                 smr_.lease);
  Replica* raw = replica.get();
  replicas_.push_back(std::move(replica));
  SM_COUNTER_INC("sm.smr.replicas_added");
  if (started_ && !stopped_) {
    StartReplica(raw);
  }
  return static_cast<int>(replicas_.size()) - 1;
}

Status ControlPlaneReplicaSet::RemoveReplica(int index) {
  if (index < 0 || index >= static_cast<int>(replicas_.size())) {
    return InvalidArgumentError("unknown replica");
  }
  Replica* replica = replicas_[static_cast<size_t>(index)].get();
  if (replica->removed) {
    return FailedPreconditionError("replica already removed");
  }
  if (num_replicas() <= 1) {
    return FailedPreconditionError("cannot remove the last control-plane replica");
  }
  replica->removed = true;
  SM_COUNTER_INC("sm.smr.replicas_removed");
  const bool was_leader = active_ == replica;
  // Stop() releases a held lease by deleting the leader node — survivors' watches fire and the
  // next election proceeds — but never invokes on_lost, so hand the leader off explicitly.
  replica->lease->Stop();
  if (was_leader) {
    OnLeaseLost(replica);
  }
  return Status::Ok();
}

Status ControlPlaneReplicaSet::RelocateReplica(int index, RegionId region) {
  if (index < 0 || index >= static_cast<int>(replicas_.size())) {
    return InvalidArgumentError("unknown replica");
  }
  Replica* replica = replicas_[static_cast<size_t>(index)].get();
  if (replica->removed) {
    return FailedPreconditionError("replica already removed");
  }
  // Takes effect at the replica's next leadership term: a sitting leader keeps its term (its
  // orchestrator's home region is fixed at construction), so placement never stops.
  replica->region = region;
  SM_COUNTER_INC("sm.smr.replicas_relocated");
  return Status::Ok();
}

int ControlPlaneReplicaSet::UnfencedWriters() const {
  int writers = 0;
  for (const std::unique_ptr<Replica>& replica : replicas_) {
    if (replica->orchestrator != nullptr && replica->orchestrator->PassesWriteFence()) {
      ++writers;
    }
  }
  for (const Retired& retired : retired_) {
    if (retired.orchestrator != nullptr && retired.orchestrator->PassesWriteFence()) {
      ++writers;
    }
  }
  return writers;
}

}  // namespace shardman
