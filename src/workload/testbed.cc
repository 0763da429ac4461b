#include "src/workload/testbed.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/obs/obs.h"

namespace shardman {

namespace {

// Window width for sim_shards > 1: 90% of the wide-area latency — the worst-case downward
// jitter at the default 0.1 jitter fraction keeps cross-region deliveries beyond the window
// (DESIGN.md §13).
TimeMicros TestbedLookahead(const TestbedConfig& config) {
  if (config.sim_shards <= 1) {
    return 0;
  }
  TimeMicros lookahead = static_cast<TimeMicros>(static_cast<double>(config.wide_latency) * 0.9);
  return lookahead < 1 ? 1 : lookahead;
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      sharded_sim_(config_.sim_shards, config_.sim_threads, TestbedLookahead(config_)),
      sim_(sharded_sim_.shard(0)),
      rng_(config_.seed) {
  // Route the global clock hook to this testbed's simulator: SM_LOG lines get "t=..s" prefixes
  // and trace events get deterministic sim timestamps. Restored in the destructor.
  prev_time_source_ = ExchangeSimTimeSource([this]() { return sim_.Now(); });
  SM_CHECK(!config_.regions.empty());
  SM_CHECK_GT(config_.servers_per_region, 0);
  SM_CHECK_GT(config_.app.num_shards(), 0);

  const int metrics = config_.app.placement.metrics.size();
  SM_CHECK_GT(metrics, 0);
  if (config_.server_capacity.dims() == 0) {
    config_.server_capacity = ResourceVector(metrics);
    for (int m = 0; m < metrics; ++m) {
      config_.server_capacity[m] = 100.0;
    }
  }
  SM_CHECK_EQ(config_.server_capacity.dims(), metrics);

  // Topology: enough machines per region for the requested containers (one container/machine).
  SymmetricTopologySpec topo_spec;
  topo_spec.region_names = config_.regions;
  topo_spec.data_centers_per_region = config_.data_centers_per_region;
  topo_spec.racks_per_data_center = config_.racks_per_data_center;
  int racks = std::max(1, config_.data_centers_per_region * config_.racks_per_data_center);
  topo_spec.machines_per_rack = (config_.servers_per_region + racks - 1) / racks;
  topo_spec.base_capacity = config_.server_capacity;
  topology_ = BuildSymmetric(topo_spec);

  LatencyModel latency(static_cast<int>(config_.regions.size()), config_.local_latency,
                       config_.wide_latency);
  network_ = std::make_unique<Network>(&sim_, latency, rng_.Next());
  coord_ = std::make_unique<CoordStore>(&sim_);
  discovery_ = std::make_unique<ServiceDiscovery>(&sim_, config_.discovery_min_delay,
                                                  config_.discovery_max_delay, rng_.Next());
  for (size_t r = 0; r < config_.regions.size(); ++r) {
    RegionId region(static_cast<int32_t>(r));
    cluster_managers_.push_back(std::make_unique<ClusterManager>(
        &sim_, &topology_, region, static_cast<int32_t>(r) * 1000000 + 1, rng_.Next()));
  }

  obs::RequestAccountingOptions acct;
  acct.regions = static_cast<int>(config_.regions.size());
  // Headroom for ScaleOut: server ids are container ids, which grow past the initial fleet.
  const int initial_servers =
      config_.servers_per_region * static_cast<int>(config_.regions.size());
  acct.max_servers = std::max(1024, initial_servers * 4);
  acct.shard_buckets = std::max(acct.shard_buckets, config_.accounting_shard_buckets);
  accountant_.Configure(acct);
}

Testbed::~Testbed() { ExchangeSimTimeSource(std::move(prev_time_source_)); }

ClusterManager& Testbed::cluster_manager(RegionId region) {
  SM_CHECK(region.valid());
  SM_CHECK_LT(static_cast<size_t>(region.value), cluster_managers_.size());
  return *cluster_managers_[static_cast<size_t>(region.value)];
}

void Testbed::CreateServer(ClusterManager& cm, ContainerId container) {
  const ContainerRecord& record = cm.container(container);
  const MachineInfo& machine = topology_.machine(record.machine);
  ServerId server_id(container.value);  // 1:1 container <-> application server

  ServerSlot slot;
  slot.container = container;
  slot.region = machine.region;

  const int metrics = config_.app.placement.metrics.size();
  switch (config_.app_kind) {
    case TestAppKind::kKvStore:
      slot.app = std::make_unique<KvStoreApp>(&sim_, network_.get(), &registry_, server_id,
                                              machine.region, metrics);
      break;
    case TestAppKind::kReplicatedStore:
      slot.app = std::make_unique<ReplicatedStoreApp>(&sim_, network_.get(), &registry_,
                                                      server_id, machine.region, metrics,
                                                      config_.app.id, discovery_.get(),
                                                      &peer_directory_);
      break;
    case TestAppKind::kQueue:
      slot.app = std::make_unique<QueueApp>(&sim_, network_.get(), &registry_, server_id,
                                            machine.region, metrics);
      break;
    case TestAppKind::kMaterializedKv:
      slot.app = std::make_unique<MaterializedKvApp>(&sim_, network_.get(), &registry_,
                                                     server_id, machine.region, metrics,
                                                     &data_bus_);
      break;
  }
  slot.app->set_processing_delay(config_.server_processing_delay);
  if (config_.server_service_rate > 0.0) {
    slot.app->set_service_rate(config_.server_service_rate);
  }
  if (config_.request_rate_cost > 0.0) {
    slot.app->set_request_rate_cost(config_.request_rate_cost);
  }
  if (config_.server_queue_limit > 0) {
    slot.app->set_queue_limit(config_.server_queue_limit);
  }
  if (config_.app.strategy == ReplicationStrategy::kSecondaryOnly) {
    slot.app->set_allow_writes_on_secondary(true);
  }
  if (!config_.shard_load_scalars.empty()) {
    // Shared closure over the load table: per-shard intrinsic load, equal mix across metrics.
    const std::vector<double>* loads = &config_.shard_load_scalars;
    int dims = metrics;
    slot.app->set_base_load_fn([loads, dims](ShardId shard) {
      ResourceVector load(dims);
      double scalar = (*loads)[static_cast<size_t>(shard.value) % loads->size()];
      for (int m = 0; m < dims; ++m) {
        load[m] = scalar;
      }
      return load;
    });
  }

  slot.library = std::make_unique<SmLibrary>(coord_.get(), config_.app.name, server_id,
                                             slot.app.get());
  slot.library->Connect();

  ServerHandle handle;
  handle.id = server_id;
  handle.container = container;
  handle.app = config_.app.id;
  handle.machine = machine.id;
  handle.region = machine.region;
  handle.data_center = machine.data_center;
  handle.rack = machine.rack;
  handle.capacity = config_.server_capacity;
  handle.api = slot.app.get();
  handle.alive = true;
  registry_.Register(handle);

  server_slots_.emplace(container.value, std::move(slot));
}

void Testbed::Start() {
  SM_CHECK(!started_);
  started_ = true;

  // Create jobs and application servers in every region.
  for (auto& cm : cluster_managers_) {
    Result<std::vector<ContainerId>> containers =
        cm->CreateJob(config_.app.id, config_.servers_per_region);
    SM_CHECK(containers.ok());
    for (ContainerId container : containers.value()) {
      CreateServer(*cm, container);
    }
    // Application-side lifecycle glue must run before the control plane's listener: on restart,
    // the server reloads its shards from the coordination store before SM flips availability.
    ContainerLifecycleListener glue;
    glue.on_down = [this](ContainerId container, bool planned) {
      auto it = server_slots_.find(container.value);
      if (it == server_slots_.end()) {
        return;
      }
      (void)planned;
      it->second.app->OnCrash();  // soft state is lost either way in this app family
      it->second.library->Disconnect();
    };
    glue.on_up = [this](ContainerId container) {
      auto it = server_slots_.find(container.value);
      if (it == server_slots_.end()) {
        return;
      }
      it->second.library->Connect();
      it->second.library->RestoreAssignmentFromCoord();
    };
    glue.on_stopped = [this](ContainerId container) {
      auto it = server_slots_.find(container.value);
      if (it != server_slots_.end()) {
        it->second.library->Disconnect();
      }
    };
    cm->AddLifecycleListener(config_.app.id, std::move(glue));
  }

  std::vector<ClusterManager*> cms;
  for (auto& cm : cluster_managers_) {
    cms.push_back(cm.get());
  }
  replica_set_ = std::make_unique<ControlPlaneReplicaSet>(
      &sim_, network_.get(), coord_.get(), discovery_.get(), &registry_, std::move(cms),
      config_.app, config_.mini_sm, config_.smr);
  replica_set_->Start();
}

Orchestrator& Testbed::orchestrator() {
  SM_CHECK(replica_set_ != nullptr);
  return replica_set_->orchestrator();
}

bool Testbed::AllReady() {
  // During a leaderless gap orchestrator() is the deposed, fenced instance: its view can read
  // all-ready while nobody is placing shards.
  return orchestrator().AllReady() && replica_set_->has_leader();
}

bool Testbed::RunUntilAllReady(TimeMicros timeout) {
  // Drive the sharded simulator (not shard 0 directly) so spare shards stay synchronized when
  // sim_shards > 1; with one shard this is exactly the historical sim_.RunFor loop.
  TimeMicros deadline = sharded_sim_.Now() + timeout;
  while (sharded_sim_.Now() < deadline) {
    if (AllReady()) {
      return true;
    }
    sharded_sim_.RunFor(Millis(100));
  }
  return AllReady();
}

ShardHostBase* Testbed::app_server(ServerId id) {
  auto it = server_slots_.find(id.value);  // server id == container id
  return it != server_slots_.end() ? it->second.app.get() : nullptr;
}

RegionId Testbed::region_of(ServerId id) const {
  auto it = server_slots_.find(id.value);
  return it != server_slots_.end() ? it->second.region : RegionId();
}

ContainerId Testbed::container_of(ServerId id) const {
  auto it = server_slots_.find(id.value);
  return it != server_slots_.end() ? it->second.container : ContainerId();
}

SmLibrary* Testbed::library_of(ServerId id) {
  auto it = server_slots_.find(id.value);
  return it != server_slots_.end() ? it->second.library.get() : nullptr;
}

void Testbed::ExpireServerSessions(const std::vector<ServerId>& servers,
                                   TimeMicros reconnect_after) {
  // Expire everything in one batch first so all deletion watches land inside the same
  // notify-delay window, then fence: demote-before-the-orchestrator-notices is what keeps
  // the single-writer invariant intact during the window.
  std::vector<SessionId> sessions;
  std::vector<SmLibrary*> affected;
  for (ServerId server : servers) {
    auto it = server_slots_.find(server.value);
    if (it == server_slots_.end()) {
      continue;
    }
    SmLibrary* library = it->second.library.get();
    if (!library->connected()) {
      continue;
    }
    sessions.push_back(library->session());
    affected.push_back(library);
  }
  coord_->ExpireSessions(sessions);
  for (SmLibrary* library : affected) {
    library->OnSessionExpired();
  }
  if (reconnect_after > 0) {
    for (SmLibrary* library : affected) {
      // Slots are never destroyed while the testbed lives, so the raw pointer is stable.
      sim_.Schedule(reconnect_after, [library]() {
        library->Connect();
        library->RestoreAssignmentFromCoord();
      });
    }
  }
}

std::unique_ptr<ServiceRouter> Testbed::CreateRouter(RegionId region, RouterConfig config) {
  auto router = std::make_unique<ServiceRouter>(&sim_, network_.get(), discovery_.get(),
                                                &registry_, &config_.app, region, config,
                                                rng_.Next());
  // Round-robin stripes across routers: concurrent writers (future parallel sim workers) land
  // on distinct cache-line slabs.
  router->SetAccounting(&accountant_, next_stripe_++ % accountant_.options().stripes);
  return router;
}

std::vector<ServerId> Testbed::ScaleOut(RegionId region, int count) {
  SM_CHECK(started_);
  ClusterManager& cm = cluster_manager(region);
  Result<std::vector<ContainerId>> added = cm.AddContainers(config_.app.id, count);
  SM_CHECK(added.ok());
  std::vector<ServerId> servers;
  for (ContainerId container : added.value()) {
    CreateServer(cm, container);
    servers.push_back(ServerId(container.value));
  }
  return servers;
}

Status Testbed::ScaleIn(ServerId server) {
  SM_CHECK(started_);
  auto it = server_slots_.find(server.value);
  if (it == server_slots_.end()) {
    return NotFoundError("unknown server");
  }
  return cluster_manager(it->second.region).RequestStop(it->second.container);
}

void Testbed::FailRegion(RegionId region) { cluster_manager(region).FailRegion(-1); }

void Testbed::RecoverRegion(RegionId region) { cluster_manager(region).RecoverRegion(); }

void Testbed::StartRollingUpgradeEverywhere(int max_concurrent_per_region,
                                            TimeMicros restart_downtime) {
  for (auto& cm : cluster_managers_) {
    cm->StartRollingUpgrade(config_.app.id, max_concurrent_per_region, restart_downtime);
  }
}

bool Testbed::UpgradeInProgress() const {
  for (const auto& cm : cluster_managers_) {
    if (cm->UpgradeInProgress(config_.app.id)) {
      return true;
    }
  }
  return false;
}

}  // namespace shardman
