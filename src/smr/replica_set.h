// ControlPlaneReplicaSet: the one control-plane host of a mini-SM (§6.1/§6.2, DESIGN.md §11).
//
// A mini-SM's orchestrator runs as a small replicated state machine: N >= 1 control-plane replicas,
// each holding a LeaderLease over the coordination store, with exactly one — the lease holder —
// running a live Orchestrator instance. Every externally visible write of that instance
// (coordination-store mutations, shard-map publishes, and mutating control RPCs at delivery time)
// is fenced by the leadership epoch, so a deposed leader can never corrupt state no matter how
// stale its view is. Placement decisions stream through the replicated PlacementOpLog; a follower
// that wins the lease reconciles from the log tail plus the persisted assignments and resumes
// placement mid-operation — no quiescence required.
//
// Replica sites are chosen by quorum-latency ranking (see quorum_placement.h) unless pinned
// explicitly, and the set reconfigures online: replicas can be added, removed, or relocated
// while placement continues; removing the leader simply forces the next election.
//
// N = 1 is the default deployment: one replica in region 0 holding the lease. A crash-restart
// of that replica is a leader kill followed by its own re-election one rejoin delay later,
// through the same StartReconciled path a multi-replica failover takes.

#ifndef SRC_SMR_REPLICA_SET_H_
#define SRC_SMR_REPLICA_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/allocator/allocator.h"
#include "src/cluster/cluster_manager.h"
#include "src/coord/coord_store.h"
#include "src/core/orchestrator.h"
#include "src/core/task_controller.h"
#include "src/discovery/service_discovery.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/smr/lease.h"
#include "src/smr/op_log.h"

namespace shardman {

// What every leadership term's orchestrator and TaskController are built from.
struct MiniSmConfig {
  OrchestratorConfig orchestrator;
  AllocatorOptions allocator;
  // The Fig. 17 "no TaskController" ablation disables this: container operations then execute
  // without negotiation, bounded only by the cluster manager's own parallelism limit.
  bool register_task_controller = true;
};

struct SmrConfig {
  // Number of control-plane replicas when `replica_regions` is empty; sites are then the
  // top-ranked quorum placement over the network's latency model (clamped to the region count).
  // With the symmetric latency model a single replica lands in region 0 (the ranking's
  // tie-break), the region that hosts the probe clients and is kept out of chaos partitions.
  int num_replicas = 1;
  // Explicit replica sites; overrides num_replicas when non-empty.
  std::vector<RegionId> replica_regions;
  LeaderLeaseConfig lease;
};

class ControlPlaneReplicaSet {
 public:
  ControlPlaneReplicaSet(Simulator* sim, Network* network, CoordStore* coord,
                         ServiceDiscovery* discovery, ServerRegistry* registry,
                         std::vector<ClusterManager*> cluster_managers, AppSpec spec,
                         MiniSmConfig base, SmrConfig smr);
  ~ControlPlaneReplicaSet();

  ControlPlaneReplicaSet(const ControlPlaneReplicaSet&) = delete;
  ControlPlaneReplicaSet& operator=(const ControlPlaneReplicaSet&) = delete;

  // Registers lifecycle listeners (once per cluster manager — they route to whichever replica
  // currently leads, buffering events across leadership gaps) and starts every replica's lease.
  // The first election winner runs initial placement.
  void Start();

  // Stops every lease (the active leader hands off first). Safe to call more than once.
  void Stop();

  // The active leader's orchestrator — or, during a leadership gap, the most recent leader's
  // (fenced) instance. SM_CHECKs that at least one election has happened.
  Orchestrator& orchestrator();
  const Orchestrator& orchestrator() const;
  SmTaskController* task_controller();
  SmAllocator& allocator() { return allocator_; }
  const AppSpec& spec() const { return app_spec_; }
  PlacementOpLog& op_log() { return op_log_; }

  bool has_leader() const { return active_ != nullptr; }
  // Index into the replica list of the current leader, -1 during a gap.
  int leader_index() const;
  // Epoch of the current (or most recent) leadership term.
  int64_t leadership_epoch() const { return last_epoch_; }
  // Completed leadership transitions after the initial election.
  int64_t failovers() const { return failovers_; }
  int num_replicas() const;
  RegionId replica_region(int index) const;
  LeaderLease* lease(int index);

  // Leaderless-gap accounting (the control-plane unavailability the bench reports).
  const std::vector<TimeMicros>& leaderless_gaps() const { return gaps_; }

  // Chaos hook: expire the current leader's store session, as a crash or a partition from the
  // store would. No-op without a leader.
  void KillLeader();

  // -- Online reconfiguration (no placement stop) ----------------------------------------------
  // Adds a replica in `region` and immediately enters it into elections. Returns its index.
  int AddReplica(RegionId region);
  // Retires the replica (its lease is released; a leader hands off and the next election picks
  // a survivor). The replica slot stays allocated but inert. Refuses to drop the last replica.
  Status RemoveReplica(int index);
  // Moves the replica's site; takes effect at its next leadership term (a sitting leader keeps
  // its term). Placement chooser for callers: ScorePlacement / RankQuorumPlacements.
  Status RelocateReplica(int index, RegionId region);

  // I7 probe: orchestrator instances (active and retired) whose writes would currently pass
  // the fence. Anything above 1 is a single-writer violation.
  int UnfencedWriters() const;

 private:
  struct Replica {
    std::string name;
    RegionId region;
    std::unique_ptr<LeaderLease> lease;
    // Live only while this replica leads; retired instances move to retired_.
    std::unique_ptr<Orchestrator> orchestrator;
    std::unique_ptr<SmTaskController> task_controller;
    bool removed = false;
  };
  struct Retired {
    std::unique_ptr<Orchestrator> orchestrator;
    std::unique_ptr<SmTaskController> task_controller;
  };
  struct BufferedEvent {
    enum Kind { kDown, kUp, kStopped };
    Kind kind;
    ContainerId container;
    bool planned = false;
  };

  void StartReplica(Replica* replica);
  void OnLeaseAcquired(Replica* replica);
  void OnLeaseLost(Replica* replica);
  void RetireOrchestrator(Replica* replica);
  void Dispatch(BufferedEvent event);
  void Deliver(Orchestrator* orchestrator, const BufferedEvent& event);

  Simulator* sim_;
  Network* network_;
  CoordStore* coord_;
  ServiceDiscovery* discovery_;
  ServerRegistry* registry_;
  std::vector<ClusterManager*> cluster_managers_;
  AppSpec app_spec_;
  MiniSmConfig base_;
  SmrConfig smr_;
  SmAllocator allocator_;
  PlacementOpLog op_log_;

  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<Retired> retired_;
  Replica* active_ = nullptr;          // current leader, null during gaps
  Orchestrator* current_ = nullptr;    // active or most recent leader's orchestrator
  SmTaskController* current_tc_ = nullptr;
  std::vector<BufferedEvent> buffered_;  // lifecycle events seen during a leadership gap

  bool started_ = false;
  bool stopped_ = false;
  bool first_takeover_ = true;
  int64_t last_epoch_ = 0;
  int64_t failovers_ = 0;
  bool gap_open_ = false;
  TimeMicros gap_start_ = 0;
  std::vector<TimeMicros> gaps_;
};

}  // namespace shardman

#endif  // SRC_SMR_REPLICA_SET_H_
