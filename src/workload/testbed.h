// Testbed: assembles the full simulated stack for one application deployment —
// topology -> regional cluster managers -> application servers (with SM library glue) ->
// coordination store / discovery -> mini-SM (a ControlPlaneReplicaSet, one replica by
// default). Client traffic comes from RequestSource (request_source.h), which sends through
// the real routing path and records success, latency and SLO violations.
//
// Every integration test, example and experiment builds on this.

#ifndef SRC_WORKLOAD_TESTBED_H_
#define SRC_WORKLOAD_TESTBED_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/data_bus.h"
#include "src/apps/kv_store_app.h"
#include "src/apps/materialized_kv_app.h"
#include "src/apps/queue_app.h"
#include "src/apps/replicated_store_app.h"
#include "src/cluster/cluster_manager.h"
#include "src/common/clock.h"
#include "src/coord/coord_store.h"
#include "src/core/sm_library.h"
#include "src/obs/request_accounting.h"
#include "src/routing/service_router.h"
#include "src/sim/network.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/smr/replica_set.h"
#include "src/topology/topology.h"

namespace shardman {

enum class TestAppKind {
  kKvStore,
  kReplicatedStore,
  kQueue,
  // §2.4 option 3: materialized state rebuilt from the external data bus — data survives
  // migrations and crashes.
  kMaterializedKv,
};

struct TestbedConfig {
  std::vector<std::string> regions = {"region0"};
  int data_centers_per_region = 1;
  int racks_per_data_center = 4;
  int servers_per_region = 8;

  AppSpec app;
  TestAppKind app_kind = TestAppKind::kKvStore;
  // Per-server capacity in the app's metric space. Empty => 100 per metric.
  ResourceVector server_capacity;
  // Intrinsic per-shard replica load (scalar intensity per shard; metric mix of 1.0 each).
  std::vector<double> shard_load_scalars;  // empty => uniform 0 load

  MiniSmConfig mini_sm;

  // The control plane always runs as a ControlPlaneReplicaSet (DESIGN.md §11): leased leader
  // election, fenced writes and op-log reconciliation. `smr` sets the replica count and sites
  // (one replica in region 0 by default) and the lease behaviour.
  SmrConfig smr;

  TimeMicros local_latency = Millis(1);
  TimeMicros wide_latency = Millis(40);
  TimeMicros discovery_min_delay = Millis(200);
  TimeMicros discovery_max_delay = Millis(800);
  TimeMicros server_processing_delay = Millis(1);
  // Finite-capacity FIFO service model on every app server (requests/second; 0 = infinite
  // servers, the historical behavior). See ShardHostBase::set_service_rate.
  double server_service_rate = 0.0;
  // Load units added to a shard's reported load per request/second it actually served (0 =
  // reports carry only the static base load). Closes the feedback loop the split/merge
  // planner and drain-target scoring need: observed traffic, not spec guesses.
  double request_rate_cost = 0.0;
  // Shed requests that would queue longer than this under the finite-capacity model (0 =
  // unbounded queue). See ShardHostBase::set_queue_limit.
  TimeMicros server_queue_limit = 0;

  // Ignored: delta dissemination is the only publish mode (DESIGN.md §10). Kept only because the
  // benchmark program assigns it; deleted with the next change to the benchmark definition.
  bool delta_dissemination = false;

  // Ignored: every testbed configures its RequestAccountant (DESIGN.md §12), and routers from
  // CreateRouter attach to it, each on its own stripe, round-robin. Kept only because the
  // benchmark program assigns it; deleted with the next change to the benchmark definition.
  bool request_accounting = true;
  // App-plane shard buckets (rounded up to a power of two). The split/merge planner's
  // per-shard signal is exact only while live shards <= buckets, so hotspot experiments
  // raise this to their max_shards.
  int accounting_shard_buckets = 32;

  // Sharded-simulation substrate (DESIGN.md §13). The testbed runs on a ShardedSimulator;
  // every existing component schedules on shard 0 (the control shard), so with the default
  // sim_shards == 1 behavior is bit-identical to the historical single Simulator. Raising
  // sim_shards gives workload drivers (RequestSource generators, smperf's traffic feeders)
  // spare shards synchronized by conservative windows; sim_threads bounds the threads that run
  // them (shard 0 always runs on the thread that calls RunUntil). The conservative window is
  // 90% of wide_latency.
  int sim_shards = 1;
  int sim_threads = 1;

  uint64_t seed = 42;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Creates the jobs and servers and starts the control plane (initial placement begins).
  void Start();

  // True when a control-plane leader is elected and its orchestrator has every replica ready.
  bool AllReady();
  // Runs the simulator until AllReady(), or `timeout` elapses. Returns true on full readiness.
  bool RunUntilAllReady(TimeMicros timeout);

  // -- Component access ---------------------------------------------------------------------
  // The control shard's engine — what every classic component schedules against.
  Simulator& sim() { return sim_; }
  // The windowed driver above it (shard 0 == sim()). Prefer RunFor/RunUntil on this when the
  // testbed was configured with sim_shards > 1, so spare shards advance too.
  ShardedSimulator& sharded_sim() { return sharded_sim_; }
  Network& network() { return *network_; }
  const Topology& topology() const { return topology_; }
  CoordStore& coord() { return *coord_; }
  ServiceDiscovery& discovery() { return *discovery_; }
  ServerRegistry& registry() { return registry_; }
  ClusterManager& cluster_manager(RegionId region);
  // The control plane; null before Start().
  ControlPlaneReplicaSet* replica_set() { return replica_set_.get(); }
  // The current leader's orchestrator (during a leaderless gap, the deposed and fenced one).
  Orchestrator& orchestrator();
  const AppSpec& spec() const { return config_.app; }
  const TestbedConfig& config() const { return config_; }
  int num_regions() const { return static_cast<int>(config_.regions.size()); }
  ContainerId container_of(ServerId id) const;
  SmLibrary* library_of(ServerId id);

  std::vector<ServerId> servers() const { return registry_.ServersOf(config_.app.id); }
  ShardHostBase* app_server(ServerId id);
  RegionId region_of(ServerId id) const;

  // -- Clients --------------------------------------------------------------------------------
  std::unique_ptr<ServiceRouter> CreateRouter(RegionId region, RouterConfig config = {});

  // -- Autoscaling (§4.1: "an auto-scaler adjusting an application's container count") --------
  // Adds `count` containers (with application servers) in `region`; the next allocation uses
  // them. Returns the new server ids.
  std::vector<ServerId> ScaleOut(RegionId region, int count);
  // Requests a negotiated stop of `server`'s container (the TaskController drains it first
  // when the drain policy requires it).
  Status ScaleIn(ServerId server);

  // -- Fault / operations helpers ----------------------------------------------------------------
  void FailRegion(RegionId region);
  void RecoverRegion(RegionId region);
  // Gray failure: the servers' coordination-store sessions expire (liveness nodes vanish, the
  // orchestrator starts failover) while the processes stay up and keep serving. Each affected
  // server is fenced (demotes its primaries, see SmLibrary::OnSessionExpired) and, when
  // `reconnect_after` > 0, reconnects and reconciles with the persisted assignment after that
  // delay. All sessions expire within one simulator event — a session-expiry storm.
  void ExpireServerSessions(const std::vector<ServerId>& servers, TimeMicros reconnect_after);
  void ExpireServerSession(ServerId server, TimeMicros reconnect_after) {
    ExpireServerSessions({server}, reconnect_after);
  }
  // Rolling upgrade of the app across every region's cluster manager.
  void StartRollingUpgradeEverywhere(int max_concurrent_per_region, TimeMicros restart_downtime);
  bool UpgradeInProgress() const;

  ReplicaPeerDirectory& peer_directory() { return peer_directory_; }
  DataBus& data_bus() { return data_bus_; }

  // The testbed-wide RED accountant.
  obs::RequestAccountant& accounting() { return accountant_; }

 private:
  struct ServerSlot {
    std::unique_ptr<ShardHostBase> app;
    std::unique_ptr<SmLibrary> library;
    ContainerId container;
    RegionId region;
  };

  void CreateServer(ClusterManager& cm, ContainerId container);

  TestbedConfig config_;
  ShardedSimulator sharded_sim_;
  Simulator& sim_;  // shard 0, the control shard — keeps the historical member name alive
  Topology topology_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<CoordStore> coord_;
  std::unique_ptr<ServiceDiscovery> discovery_;
  ServerRegistry registry_;
  std::vector<std::unique_ptr<ClusterManager>> cluster_managers_;
  std::unique_ptr<ControlPlaneReplicaSet> replica_set_;
  std::unordered_map<int32_t, ServerSlot> server_slots_;
  ReplicaPeerDirectory peer_directory_;
  DataBus data_bus_;
  // Declared after sim_ so the accountant (whose cells routers reference) is destroyed first.
  obs::RequestAccountant accountant_;
  int next_stripe_ = 0;
  Rng rng_;
  bool started_ = false;
  // The global sim-time source installed for this testbed (SM_LOG prefixes, trace timestamps);
  // the previous source is restored on destruction so nested testbeds stay correct.
  TimeSource prev_time_source_;
};

}  // namespace shardman

#endif  // SRC_WORKLOAD_TESTBED_H_
