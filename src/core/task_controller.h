// SmTaskController: SM's lifecycle negotiator (§4.1, §4.2).
//
// One instance per application, registered with *every* regional cluster manager hosting the
// app — which is how SM globally coordinates lifecycle operations across regions: the caps are
// enforced on shared state, so two regional cluster managers cannot simultaneously take down two
// replicas of the same shard.
//
// Per negotiation round it approves the largest pending-op subset such that:
//   * the number of containers under concurrent planned operations (a started drain counts
//     from DrainServer on and its slot carries over to the approved op), *plus* containers
//     already down from unplanned failures, stays within the app's global cap;
//   * for every shard, unavailable replicas (current + about-to-be) stay within the per-shard
//     cap;
//   * containers whose drain policy requires it are drained (via the orchestrator) before their
//     operation is approved.
// Non-negotiable maintenance (§4.2) gets advance notice: primaries are demoted/drained before
// the event starts.

#ifndef SRC_CORE_TASK_CONTROLLER_H_
#define SRC_CORE_TASK_CONTROLLER_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/core/app_spec.h"
#include "src/core/orchestrator.h"
#include "src/core/server_registry.h"
#include "src/obs/trace.h"

namespace shardman {

class SmTaskController : public TaskControlHandler {
 public:
  SmTaskController(Simulator* sim, Orchestrator* orchestrator, ServerRegistry* registry,
                   const AppSpec& spec);

  // TaskControlHandler:
  std::vector<int64_t> OnPendingOps(ClusterManager* cm, AppId app,
                                    const std::vector<ContainerOp>& pending) override;
  void OnOpFinished(ClusterManager* cm, AppId app, const ContainerOp& op) override;
  void OnMaintenanceScheduled(ClusterManager* cm, const MaintenanceEvent& event) override;

  // Containers currently executing approved operations.
  int ops_in_flight() const { return static_cast<int>(in_flight_.size()); }
  int64_t approvals() const { return approvals_; }
  int64_t deferrals() const { return deferrals_; }

  // Registers an additional cluster manager so the global cap can count every region's
  // containers (ControlPlaneReplicaSet wires every cluster manager in each leadership term).
  void TrackClusterManager(ClusterManager* cm) { cluster_managers_.push_back(cm); }

 private:
  enum class DrainPhase { kNotStarted, kInProgress, kDone };

  int TotalContainers() const;
  int UnplannedDownContainers() const;
  bool IsUnplannedDown(ContainerId container) const;
  // Global-cap slots held by started drains whose op is not yet approved. A container that
  // is down unplanned is counted by UnplannedDownContainers instead.
  int DrainSlots() const;
  // Gives back the slot of every drain whose op left `cm`'s pending list unapproved, and
  // cancels that drain so the server takes placements again.
  void ReleaseAbandonedDrains(ClusterManager* cm, const std::vector<ContainerOp>& pending);
  bool NeedsDrain(const ServerHandle& server) const;

  Simulator* sim_;
  Orchestrator* orchestrator_;
  ServerRegistry* registry_;
  AppSpec spec_;
  std::vector<ClusterManager*> cluster_managers_;

  std::unordered_set<int32_t> in_flight_;                       // containers executing ops
  std::unordered_map<int32_t, DrainPhase> drain_phase_;         // per container
  // Shards with planned unavailability from in-flight approved ops: shard -> count.
  std::unordered_map<int32_t, int> planned_unavailable_;
  // Shards impacted per approved container, to undo planned_unavailable_ on completion.
  std::unordered_map<int32_t, std::vector<int32_t>> impact_;

  // Telemetry for ops under negotiation: when the op was first seen (feeds the approval-delay
  // histogram) and the trace span opened for it. Erased on approval.
  struct Negotiation {
    TimeMicros first_seen = 0;
    obs::TraceId trace;
  };
  std::unordered_map<int64_t, Negotiation> negotiations_;  // by op_id

  int64_t approvals_ = 0;
  int64_t deferrals_ = 0;
};

}  // namespace shardman

#endif  // SRC_CORE_TASK_CONTROLLER_H_
