// ClusterManager: a regional Twine-like cluster manager simulator.
//
// Responsibilities reproduced from the paper (§3.2, §4.1, §4.2):
//   * deploys an application in its region as a job = a group of containers on machines;
//   * executes container lifecycle operations (start/stop/restart/move);
//   * negotiates *negotiable* operations (rolling upgrades, autoscaling) with a registered
//     TaskControl handler: the CM periodically presents its pending operations, the handler
//     approves a safe subset, the CM executes approved operations immediately and re-presents
//     the rest after completions;
//   * announces *non-negotiable* maintenance events (hardware/kernel work) with advance notice
//     and executes them at their scheduled time regardless of approval;
//   * restarts containers elsewhere on unplanned machine failure (container-level failover,
//     which the paper notes the cluster manager provides even without SM).
//
// Geo-distributed applications span several ClusterManagers (one per region); the SM
// TaskController coordinates approvals across all of them (§4.1).

#ifndef SRC_CLUSTER_CLUSTER_MANAGER_H_
#define SRC_CLUSTER_CLUSTER_MANAGER_H_

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/sim/simulator.h"
#include "src/topology/topology.h"

namespace shardman {

enum class ContainerState {
  kRunning,
  kRestarting,  // planned restart in progress
  kDown,        // unplanned failure
  kStopped,     // permanently stopped (scaled down)
};

enum class OpKind {
  kStart,
  kStop,
  kRestart,
  kMove,
};

std::string_view OpKindName(OpKind kind);

// Impact classes of non-negotiable maintenance (§4.2).
enum class MaintenanceImpact {
  kNetworkLoss,      // machine unreachable for the window; state preserved
  kRuntimeStateLoss, // container restarts; in-memory state lost
  kFullStateLoss,    // container restarts; local persistent state lost
  kMachineLoss,      // machine gone; containers restarted elsewhere
};

struct ContainerOp {
  int64_t op_id = 0;
  ContainerId container;
  OpKind kind = OpKind::kRestart;
  MachineId move_target;     // only for kMove
  TimeMicros downtime = 0;   // how long the container is unavailable while executing
};

struct ContainerRecord {
  ContainerId id;
  AppId app;
  MachineId machine;
  ContainerState state = ContainerState::kRunning;
  // Incremented on every (re)start; lets servers detect that they are a fresh incarnation.
  int64_t generation = 0;
};

struct MaintenanceEvent {
  int64_t event_id = 0;
  std::vector<MachineId> machines;
  TimeMicros start = 0;
  TimeMicros end = 0;
  MaintenanceImpact impact = MaintenanceImpact::kNetworkLoss;
};

class ClusterManager;  // forward

// The TaskControl protocol endpoint implemented by SM's TaskController (or an application's
// custom controller in the composable ecosystem of §7).
class TaskControlHandler {
 public:
  virtual ~TaskControlHandler() = default;

  // Presents the pending negotiable operations for `app`. Returns op ids approved for
  // immediate execution; unapproved ops stay pending and are presented again later.
  virtual std::vector<int64_t> OnPendingOps(ClusterManager* cm, AppId app,
                                            const std::vector<ContainerOp>& pending) = 0;

  // An approved operation finished executing (the container is running again / stopped).
  virtual void OnOpFinished(ClusterManager* cm, AppId app, const ContainerOp& op) {}

  // Advance notice of a non-negotiable maintenance event (fires `advance_notice` before start).
  virtual void OnMaintenanceScheduled(ClusterManager* cm, const MaintenanceEvent& event) {}
};

// Container up/down notifications, consumed by the SM library / orchestrator glue.
struct ContainerLifecycleListener {
  // `planned` distinguishes negotiated restarts from unplanned failures.
  std::function<void(ContainerId, bool planned)> on_down;
  std::function<void(ContainerId)> on_up;
  std::function<void(ContainerId)> on_stopped;
};

class ClusterManager {
 public:
  // `container_id_base` partitions the container id space across regional CMs so ids are
  // globally unique (a fleet helper passes distinct bases).
  ClusterManager(Simulator* sim, const Topology* topology, RegionId region,
                 int32_t container_id_base, uint64_t seed);

  RegionId region() const { return region_; }

  // -- Jobs and containers ------------------------------------------------------------------
  // Creates `num_containers` containers for `app`, spread round-robin across this region's
  // racks and machines. Containers start running immediately.
  Result<std::vector<ContainerId>> CreateJob(AppId app, int num_containers);

  // Adds containers to an existing (or empty) job; used by the autoscaler path.
  Result<std::vector<ContainerId>> AddContainers(AppId app, int num_containers);

  // Requests a negotiable stop of `container` (scale-down). Goes through TaskControl.
  Status RequestStop(ContainerId container);

  // Requests a negotiable restart of a single container (canary deploys, config reloads).
  Status RequestRestart(ContainerId container, TimeMicros downtime);

  // Requests a negotiable move of `container` to another machine (e.g. defragmentation or
  // hardware decommission). The container is down for `downtime` while it restarts on the
  // target machine. Goes through TaskControl like any other planned operation.
  Status RequestMove(ContainerId container, MachineId target, TimeMicros downtime);

  // The app's containers that are not stopped, in creation order. The list is built once and
  // handed out until a container of the app is created, stopped or started again, so hold the
  // reference only while none is.
  const std::vector<ContainerId>& ContainersOf(AppId app) const;
  bool Owns(ContainerId id) const;
  const ContainerRecord& container(ContainerId id) const;
  bool IsUp(ContainerId id) const;
  MachineId MachineOf(ContainerId id) const;

  // -- TaskControl --------------------------------------------------------------------------
  void RegisterTaskController(AppId app, TaskControlHandler* handler);
  void UnregisterTaskController(AppId app);
  void AddLifecycleListener(AppId app, ContainerLifecycleListener listener);

  // -- Planned, negotiable operations ---------------------------------------------------------
  // Rolling upgrade: every container of `app` in this region must restart once. At most
  // `max_concurrent` restarts execute at a time (the CM-side parallelism limit; the
  // TaskController may approve fewer). `done` fires when all containers restarted.
  void StartRollingUpgrade(AppId app, int max_concurrent, TimeMicros restart_downtime,
                           std::function<void()> done = nullptr);
  bool UpgradeInProgress(AppId app) const;
  // Containers still waiting or restarting for the current upgrade of `app`.
  int UpgradeRemaining(AppId app) const;

  // -- Unplanned failures ---------------------------------------------------------------------
  // The container crashes now and (if downtime >= 0) restarts after `downtime`.
  // With downtime < 0 the container stays down until RecoverContainer.
  void FailContainer(ContainerId id, TimeMicros downtime);
  void FailMachine(MachineId machine, TimeMicros downtime);
  // Fails every container in the region (whole-region outage, Fig 19).
  void FailRegion(TimeMicros downtime);
  void RecoverContainer(ContainerId id);
  void RecoverRegion();

  // -- Non-negotiable maintenance -------------------------------------------------------------
  // Schedules maintenance starting `start_in` from now for `duration`. The TaskControl handler
  // gets OnMaintenanceScheduled `advance_notice` before start (clamped to now).
  int64_t ScheduleMaintenance(std::vector<MachineId> machines, TimeMicros start_in,
                              TimeMicros duration, MaintenanceImpact impact,
                              TimeMicros advance_notice);

  // -- Introspection --------------------------------------------------------------------------
  int64_t planned_restarts() const { return planned_restarts_; }
  int64_t unplanned_failures() const { return unplanned_failures_; }
  // How often pending ops are re-presented to the TaskController.
  void set_negotiate_interval(TimeMicros t) { negotiate_interval_ = t; }

 private:
  struct UpgradeState {
    std::deque<ContainerOp> pending;
    std::unordered_set<int64_t> in_flight;
    int max_concurrent = 1;
    std::function<void()> done;
    bool negotiate_scheduled = false;
  };

  MachineId PickMachine();
  ContainerId NewContainer(AppId app, MachineId machine);
  // Every state change goes through here, so ContainersOf's lists stay current.
  void SetState(ContainerRecord& rec, ContainerState state);
  void Negotiate(AppId app);
  void ScheduleNegotiate(AppId app, TimeMicros delay);
  void ExecuteOp(AppId app, const ContainerOp& op);
  void FinishOp(AppId app, ContainerOp op);
  void NotifyDown(ContainerId id, bool planned);
  void NotifyUp(ContainerId id);
  void NotifyStopped(ContainerId id);
  void BeginMaintenance(const MaintenanceEvent& event);
  void EndMaintenance(const MaintenanceEvent& event);

  Simulator* sim_;
  const Topology* topology_;
  RegionId region_;
  Rng rng_;
  std::vector<MachineId> machines_;  // machines in this region
  size_t next_machine_rr_ = 0;

  int32_t next_container_;
  std::unordered_map<int32_t, ContainerRecord> containers_;
  std::unordered_map<int32_t, std::vector<ContainerId>> app_containers_;
  // ContainersOf's lists per app; an entry is erased when its app's list changes.
  mutable std::unordered_map<int32_t, std::vector<ContainerId>> live_containers_;

  std::unordered_map<int32_t, TaskControlHandler*> controllers_;
  std::unordered_map<int32_t, std::vector<ContainerLifecycleListener>> listeners_;
  std::unordered_map<int32_t, UpgradeState> upgrades_;

  TimeMicros negotiate_interval_ = Seconds(1);
  int64_t next_op_ = 1;
  int64_t next_maintenance_ = 1;
  int64_t planned_restarts_ = 0;
  int64_t unplanned_failures_ = 0;
};

}  // namespace shardman

#endif  // SRC_CLUSTER_CLUSTER_MANAGER_H_
