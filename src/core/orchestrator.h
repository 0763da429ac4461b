// Orchestrator: the per-partition brain of a mini-SM (§3.2).
//
// It owns the authoritative shard-to-server assignment of one application partition:
//   * runs the allocator (emergency mode on failures, periodic mode on a timer) and executes the
//     resulting replica moves with bounded concurrency (§5.1 hard constraint 1);
//   * drives the 5-step graceful primary-replica migration of §4.3 (or the abrupt
//     break-before-make variant when the app disables graceful migration — the Fig. 17 ablation);
//   * reacts to container lifecycle events: planned restarts without drain are tolerated until a
//     patience timer, unplanned failures trigger failover after a grace period, and
//     primary-secondary apps promote a surviving secondary immediately;
//   * drains servers on request from the TaskController before planned operations (§4.1);
//   * collects per-shard load reports (§5) and publishes versioned shard maps to service
//     discovery;
//   * persists per-server assignments in the coordination store so restarting servers can
//     reload their shards without a control-plane dependency (§3.2).

#ifndef SRC_CORE_ORCHESTRATOR_H_
#define SRC_CORE_ORCHESTRATOR_H_

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/allocator/allocator.h"
#include "src/coord/coord_store.h"
#include "src/core/app_spec.h"
#include "src/core/server_registry.h"
#include "src/discovery/service_discovery.h"
#include "src/obs/trace.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace shardman {

// One entry of the replicated placement-op log (DESIGN.md §11): enough to describe an
// operation the leader had in flight, so a successor can reconcile it mid-operation. `kind` is
// an Orchestrator::OpKind as int (the struct predates nothing — it lives here so the SMR layer
// and the orchestrator share it without a dependency cycle).
struct PlacementOpRecord {
  int64_t seq = 0;
  int64_t epoch = 0;
  int kind = 0;
  ShardId shard;
  int replica = 0;
  ServerId from;
  ServerId to;
  // Kind-specific payload (DESIGN.md §15): the split key for kSplit records. 0 otherwise, and
  // 0 when parsed from a pre-§15 six-field log entry.
  uint64_t aux = 0;
};

struct OrchestratorConfig {
  TimeMicros load_poll_interval = Seconds(10);
  TimeMicros periodic_alloc_interval = Seconds(30);
  // Unplanned failure: wait this long for the container to return before reassigning its shards.
  TimeMicros failover_grace = Seconds(10);
  // Planned restart without drain: wait this long for the container to return.
  TimeMicros planned_restart_patience = Minutes(3);
  // Old primary keeps forwarding for this long after the new primary takes over (§4.3 step 5).
  TimeMicros drop_grace = Seconds(2);
  // Shard-map publications are coalesced within these windows: routine updates wait
  // `publish_coalesce`; urgent ones (migration step 4, promotions) wait only `publish_urgent`.
  TimeMicros publish_coalesce = Millis(50);
  TimeMicros publish_urgent = Millis(10);
  // Solver budgets for periodic / emergency allocator runs inside the control loop. The eval
  // budgets are the deterministic primary limit (a solve result never depends on machine
  // load); the wall budgets remain as safety caps only. The defaults are far above what the
  // control loop's problem sizes need to converge.
  int64_t periodic_solver_evals = 4'000'000;
  int64_t emergency_solver_evals = 1'000'000;
  TimeMicros periodic_solver_budget = Seconds(5);
  TimeMicros emergency_solver_budget = Seconds(2);
  // Parallel portfolio for control-loop solves (SolveOptions::{threads, starts}): placements
  // depend on solver_starts but never on solver_threads.
  int solver_threads = 1;
  int solver_starts = 1;
  int max_op_attempts = 3;
  // Failed operations retry with capped exponential backoff: attempt n waits
  // min(retry_backoff_base * 2^(n-1), retry_backoff_max), scaled by a seeded jitter factor
  // uniform in [1 - retry_jitter, 1 + retry_jitter] so synchronized failures fan out.
  TimeMicros retry_backoff_base = Seconds(1);
  TimeMicros retry_backoff_max = Seconds(16);
  double retry_jitter = 0.2;
  uint64_t retry_seed = 0x5eedbacc0ff;
  // -- Replicated control plane (DESIGN.md §11) -------------------------------------------------
  // The hosting ControlPlaneReplicaSet sets these per leadership term; the constructor
  // SM_CHECKs that all three hooks are present.
  // Leadership epoch this orchestrator instance writes under.
  int64_t leadership_epoch = 0;
  // Store-side fence: returns true while `leadership_epoch` is still the current leader epoch.
  // Evaluated before every coordination-store write and shard-map publish, and again at
  // delivery time inside every mutating control RPC; the first failure permanently fences this
  // instance.
  std::function<bool(int64_t)> write_fence;
  // Replicated op-log hooks: append when an operation starts executing (returns its sequence
  // number), complete when it finishes.
  std::function<int64_t(const PlacementOpRecord&)> op_log_append;
  std::function<void(int64_t)> op_log_complete;
};

enum class ReplicaPhase {
  kPending,      // needs placement
  kAdding,       // AddShard in flight
  kReady,        // serving
  kUnavailable,  // bound to a down server
  kMigrating,    // move in progress
  kDropping,     // DropShard in flight (scale-down)
};

class Orchestrator {
 public:
  // The kinds of replica lifecycle operation the op engine executes (public for telemetry:
  // trace span names are derived from the kind). kSplit/kMerge are *structural* kinds: they
  // appear only as op-log records fencing a split/merge transaction (DESIGN.md §15) — their
  // execution decomposes into ordinary kPlace/kDrop ops plus an atomic range-commit publish,
  // so they never enter the per-replica op queue.
  enum class OpKind { kPlace, kMoveSecondary, kMovePrimary, kDrop, kPromote, kSplit, kMerge };

  Orchestrator(Simulator* sim, Network* network, CoordStore* coord, ServiceDiscovery* discovery,
               ServerRegistry* registry, SmAllocator* allocator, AppSpec spec,
               RegionId home_region, OrchestratorConfig config);

  // The first leadership term's start path: places all shards onto the currently registered
  // servers and starts the periodic timers.
  void Start();

  // -- Replicated control plane (DESIGN.md §11) -------------------------------------------------
  // Leader-to-follower hand-off (and teardown) without a quiescence precondition: permanently
  // fences this instance, cancels timers/watches/retries, executes pending linger drops
  // (fence-guarded), discards queued-but-unstarted operations, and abandons in-flight
  // operations as their callbacks arrive. `drained` fires once nothing is in flight. Idempotent.
  void BeginHandoff(std::function<void()> drained);

  // Every later leadership term's start path (control-plane fault tolerance, §6.2): builds
  // state from the shard assignments a previous term persisted in the coordination store,
  // reconciles with server liveness, then reconciles the previous leader's in-flight operations
  // from the op-log `tail` — dropping stray replica copies the dead leader may have created,
  // re-asserting primaries mid-migration, and finishing interrupted promotions — before
  // resuming placement. Shards whose servers are gone are re-placed; the shard-map version
  // continues monotonically from the persisted value.
  void StartReconciled(const std::vector<PlacementOpRecord>& tail);

  bool fenced() const { return fenced_; }
  int64_t leadership_epoch() const { return config_.leadership_epoch; }
  int64_t abandoned_ops() const { return abandoned_ops_; }
  int64_t reconciled_ops() const { return reconciled_ops_; }
  // True while this instance's writes would pass the fence. Const: probes the fence without
  // tripping the permanent fenced_ latch.
  bool PassesWriteFence() const;

  const AppSpec& spec() const { return spec_; }

  // -- Lifecycle events (routed from the cluster managers by ControlPlaneReplicaSet) -----------
  void OnServerUp(ServerId server);
  void OnServerDown(ServerId server, bool planned);
  void OnServerStopped(ServerId server);

  // -- TaskController integration (§4.1) -------------------------------------------------------
  // Moves replicas with the selected roles off `server`; `done` fires once none remain. The
  // server is flagged as draining so the allocator avoids it until CancelDrain.
  void DrainServer(ServerId server, bool drain_primaries, bool drain_secondaries,
                   std::function<void()> done);
  void CancelDrain(ServerId server);
  // Demotes primaries on `server`, promoting ready secondaries elsewhere (§4.2 maintenance).
  void DemotePrimariesOn(ServerId server);

  // (shard, role) pairs currently bound to a server.
  std::vector<std::pair<ShardId, ReplicaRole>> ReplicasOn(ServerId server) const;
  // True if a replica of a selected role is bound to `server`.
  bool HostsRole(ServerId server, bool primaries, bool secondaries) const;
  // Number of currently unavailable replicas of a shard (down, pending, or mid-abrupt-move).
  int UnavailableReplicas(ShardId shard) const;
  // Replicas of a shard that *lost* availability: bound to a down server or mid-abrupt-move.
  // Unlike UnavailableReplicas this excludes pending/adding replicas (capacity being added, not
  // availability taken away) — the quantity the per-shard unavailability cap bounds.
  int DownReplicas(ShardId shard) const;
  int ReplicaCount(ShardId shard) const;

  // -- Shard scaling (§3.4) ---------------------------------------------------------------------
  Status AddReplica(ShardId shard);
  Status RemoveReplica(ShardId shard);

  // -- Adaptive shard split/merge (DESIGN.md §15) -----------------------------------------------
  // Splits `shard`'s key range at `split_key` (strictly inside the range). A child shard id is
  // allocated (reusing the smallest retired id when one exists), its replicas are placed
  // through ordinary kPlace ops, and once every child replica is ready the split *commits*:
  // one urgent map publish atomically shrinks the parent's range to [begin, split_key) and
  // activates the child as [split_key, end) — no published map version ever has a key gap or
  // overlap. Fails unless the shard is active, quiescent (all replicas ready, no queued ops)
  // and not already splitting.
  Status SplitShard(ShardId shard, uint64_t split_key);
  // Merges adjacent `right` into `left` (left.range.end == right.range.begin). The commit is
  // immediate — one urgent publish extends left over right's range and retires right to an
  // empty range — and right's replica copies are dropped only after drop_grace, so clients on
  // the pre-merge map still find serving copies for right's keys throughout dissemination.
  Status MergeShards(ShardId left, ShardId right);

  // Live key range of a shard (empty for retired shards and uncommitted split children).
  KeyRange shard_range(ShardId shard) const;
  // False once a shard has been merged away (its dense slot remains; its range is empty).
  bool shard_active(ShardId shard) const;
  // Shards currently owning a non-empty key range.
  int active_shards() const;
  // Resolves a key against the live (committed) ranges; invalid id when unowned.
  ShardId ShardForKey(uint64_t key) const;
  // True while a split is waiting on child placement or a merged-away shard still has replica
  // copies awaiting their grace-window drops. The autoscaler holds scale-ins while this is set
  // so container shutdown never races a boundary change (the arbitration contract pinned by
  // tests/autoscaler_split_test.cc).
  bool structural_change_in_flight() const;
  int64_t splits() const { return splits_; }
  int64_t merges() const { return merges_; }

  // -- Placement policy updates (Fig. 20) -------------------------------------------------------
  void SetRegionPreference(ShardId shard, RegionId region, double weight, int min_replicas);

  // -- Allocation ------------------------------------------------------------------------------
  void TriggerEmergencyAllocation();
  void TriggerPeriodicAllocation();

  // -- Introspection ----------------------------------------------------------------------------
  int64_t completed_moves() const { return completed_moves_; }
  int64_t graceful_migrations() const { return graceful_migrations_; }
  int64_t abrupt_migrations() const { return abrupt_migrations_; }
  int64_t published_versions() const { return map_version_; }
  int64_t failed_ops() const { return failed_ops_; }
  int pending_ops() const { return static_cast<int>(op_queue_.size()) + in_flight_ops_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // Mean load.Total() across a shard's ready replicas (shard-scaler input).
  double ShardMeanReplicaLoad(ShardId shard) const;
  ReplicaPhase replica_phase(ShardId shard, int replica) const;
  ServerId replica_server(ShardId shard, int replica) const;
  ReplicaRole replica_role(ShardId shard, int replica) const;
  // The replica's last polled load (zero until the first poll).
  const ResourceVector& replica_load(ShardId shard, int replica) const;
  // True from DrainServer until CancelDrain.
  bool server_draining(ServerId server) const;
  // Drain-target score: the server's summed replica load over its capacity (1e9 when the
  // server is unknown).
  double ServerLoadScore(ServerId server) const;
  // True once every replica of every shard is kReady.
  bool AllReady() const;

 private:
  friend class OrchestratorTestPeer;  // tests: drain-target oracle and allocation budgets

  struct ReplicaRuntime {
    ReplicaRole role = ReplicaRole::kSecondary;
    ServerId server;       // current owner (invalid when pending)
    ServerId move_target;  // during kMigrating
    ReplicaPhase phase = ReplicaPhase::kPending;
    ResourceVector load;
    bool abrupt_move = false;  // current migration is break-before-make
    bool op_queued = false;    // an op for this replica is queued or in flight
  };
  struct ShardRuntime {
    std::vector<ReplicaRuntime> replicas;
    RegionId preferred_region;
    double preference_weight = 1.0;
    int min_replicas_in_preferred = 1;
    // -- Key-range / split-merge state (DESIGN.md §15) ------------------------------------------
    KeyRange range;       // live committed range; empty for retired shards + uncommitted children
    bool active = true;   // false once merged away (slot stays dense; id goes to the free list)
    ShardId split_child;  // set on a parent while its split awaits child placement
    ShardId split_parent; // set on a child until its split commits
    uint64_t split_key = 0;     // parent side: committed boundary once the child is ready
    int64_t split_log_seq = 0;  // kSplit op-log entry, completed at commit
    int64_t merge_log_seq = 0;  // right-shard side: kMerge entry, completed once replicas drain
  };
  struct Op {
    OpKind kind = OpKind::kPlace;
    ShardId shard;
    int replica = 0;
    ServerId from;
    ServerId to;
    int attempts = 0;
    int64_t log_seq = 0;  // op-log sequence once logged (0 = not logged)
    bool inbound = false; // counted in inbound_moves_[to] until the op finishes
    obs::TraceId trace;   // spans of this op's execution; assigned at enqueue
    obs::TraceId parent;  // the allocation run that produced the op, when any
  };
  struct DrainState {
    bool primaries = false;
    bool secondaries = false;
    std::function<void()> done;
  };
  // One server of the app: what PickDrainTarget reads, kept current as replicas bind, ops
  // start and finish, drains begin and end and loads are polled. Rows are indexed by a dense
  // ordinal (row_of_), never by raw id: ids are sparse (ids.h).
  struct ServerRow {
    const ServerHandle* handle = nullptr;  // stable: the registry never erases
    int32_t bound = 0;      // server_replicas_[id].size()
    int32_t inbound = 0;    // inbound_moves_[id]
    bool draining = false;  // server_draining_ holds id
    // Sum of load.Total() over the bound replicas, in server_replicas_ order (LoadTotal).
    mutable bool load_valid = false;
    mutable double load_total = 0.0;
    ShardLoadReport report;  // PollLoads refills it every poll
  };

  ReplicaRuntime& Replica(ShardId shard, int replica);
  const ReplicaRuntime& Replica(ShardId shard, int replica) const;

  // -- Op engine -------------------------------------------------------------------------------
  // Backoff delay before re-attempting a failed op (see OrchestratorConfig::retry_backoff_*).
  TimeMicros RetryBackoff(int attempts);
  void EnqueueOp(Op op);
  void Pump();
  void StartOp(Op op);
  void FinishOp(const Op& op, bool success);
  void ExecutePlace(Op op);
  void ExecuteMoveSecondary(Op op);
  void ExecuteMovePrimaryGraceful(Op op);
  void ExecuteMovePrimaryAbrupt(Op op);
  void ExecuteDrop(Op op);
  void ExecutePromote(Op op);

  // -- Fencing / hand-off (DESIGN.md §11) -------------------------------------------------------
  // Gate for every externally visible write. Standalone instances always pass; fenced ones
  // never do. A fence-predicate failure latches fenced_ permanently.
  bool MayWrite();
  // Wraps a mutating control-RPC body with a delivery-time fence check, so a stale leader's
  // in-flight RPC is rejected at the receiving server even if it was sent while still leader.
  std::function<Status(ShardServerApi&)> FenceWrapped(
      std::function<Status(ShardServerApi&)> fn) const;
  // Drops an in-flight op on the floor after fencing: releases its bookkeeping without
  // retrying, persisting, or publishing. Called at the top of completion callbacks.
  void AbandonOp(const Op& op);
  void MaybeFinishHandoff();
  // BeginHandoff's teardown: timers, watches, retries, linger drops.
  void CancelTimersAndDeferred();
  // Appends `op` to the replicated op log (no-op once fenced). Called by the
  // Execute* paths once the op's target server is resolved, so the record names real endpoints.
  void LogOpStart(Op& op);
  void LogOpComplete(const Op& op);
  // Counts an op whose target is resolved toward that server's inbound moves, and releases it
  // when the op finishes or is abandoned.
  void CountInbound(Op& op);
  void ReleaseInbound(const Op& op);
  // Reconciliation pieces of StartReconciled.
  void ReconcileLiveness();
  void ReconcileOp(const PlacementOpRecord& record);

  // -- Assignment bookkeeping --------------------------------------------------------------------
  void Bind(ShardId shard, int replica, ServerId server);
  void Unbind(ShardId shard, int replica);
  void PersistServerAssignment(ServerId server);
  void MarkMapDirty(bool urgent);
  void PublishMap();
  ShardMap BuildMap() const;

  // -- Split / merge internals (DESIGN.md §15) ---------------------------------------------------
  // Smallest retired shard id when one exists, else a fresh slot appended to shards_.
  ShardId AllocateShardId();
  // Called when a kPlace for a split child's replica completes; commits once all are ready.
  void CommitSplitIfReady(ShardId child);
  void CommitSplit(ShardId parent);
  // Pushes an emptied inactive shard's id onto the free list and completes its kMerge record.
  void RetireShard(ShardId shard);
  // Persists the live range table at /sm/<app>/ranges (rewritten on every commit).
  void PersistRanges();
  // Recovery: rebuilds ranges/active flags (growing shards_ past the spec count when splits
  // had committed); must run between InitShards and LoadAssignmentsFromCoord.
  void LoadRangesFromCoord();
  // Recovery: drops leftover replica copies of inactive shards (a merge interrupted mid-drop)
  // and retires their ids. Runs after LoadAssignmentsFromCoord.
  void CleanupInactiveShards();
  // Appends a structural (kSplit/kMerge) record to the replicated op log; 0 when disabled.
  int64_t LogStructuralOp(OpKind kind, ShardId shard, int replica, uint64_t aux);

  // -- Failure / recovery ------------------------------------------------------------------------
  void InitShards();
  void StartTimersAndWatches();
  void LoadAssignmentsFromCoord();
  // Liveness changes observed through the coordination store's ephemeral nodes (§3.2) — the
  // backup detection channel when cluster-manager notifications are missed.
  void OnLivenessLost(ServerId server);
  void OnLivenessRestored(ServerId server);
  void HandleServerGone(ServerId server);
  void PromoteSurvivor(ShardId shard, int dead_replica);
  // True if any replica of `shard` is currently bound to (or migrating toward) `server`.
  bool ShardBoundTo(ShardId shard, ServerId server) const;

  // -- Allocation --------------------------------------------------------------------------------
  // Refills snapshot_ from the current state and returns it.
  PartitionSnapshot& BuildSnapshot();
  void ApplyAllocation(const AllocationResult& result, obs::TraceId alloc_trace);
  // The live, non-draining server outside `from` and the shard's current servers that is
  // least in (tier, load score, bound + inbound replicas, id); invalid when none is.
  ServerId PickDrainTarget(ShardId shard, ServerId from);
  void CheckDrainDone(ServerId server);

  void PollLoads();

  // -- Server table ------------------------------------------------------------------------------
  // Adds a row for every app server registered since the last call.
  void SyncServerRows();
  ServerRow* FindRow(ServerId server);
  // The row's cached load total, summed afresh when a bind or poll invalidated it.
  double LoadTotal(const ServerRow& row) const;
  // Sum of load.Total() over the replicas bound to `server`, in server_replicas_ order.
  double SumLoads(ServerId server) const;

  Simulator* sim_;
  Network* network_;
  CoordStore* coord_;
  ServiceDiscovery* discovery_;
  ServerRegistry* registry_;
  SmAllocator* allocator_;
  AppSpec spec_;
  RegionId home_region_;
  OrchestratorConfig config_;
  // "/sm/<app>/assign/": the per-server assignment records are this plus the server id.
  const std::string assign_prefix_;

  std::vector<ShardRuntime> shards_;
  // server -> replicas bound to it (includes unavailable ones). Each set's iteration order
  // feeds outcomes: drain enqueue order, load-sum order and assignment-record bytes.
  std::unordered_map<int32_t, std::unordered_set<int64_t>> server_replicas_;
  // server -> started place/move ops targeting it that have not finished yet.
  std::unordered_map<int32_t, int> inbound_moves_;
  // The app's servers (ServerRow), in the order SyncServerRows first saw them.
  std::vector<ServerRow> rows_;
  std::unordered_map<int32_t, int32_t> row_of_;  // server id -> index into rows_
  size_t rows_synced_at_ = 0;                    // registry size at the last SyncServerRows
  // The allocator's input, refilled in place every allocation round.
  PartitionSnapshot snapshot_;
  std::unordered_map<int32_t, DrainState> drains_;
  std::unordered_map<int32_t, EventId> server_timers_;
  std::unordered_set<int32_t> server_draining_;
  // Old primaries still forwarding after a graceful hand-off (per server); drains wait on them.
  std::unordered_map<int32_t, int> lingering_forwarders_;
  bool emergency_pending_ = false;

  std::deque<Op> op_queue_;
  std::unordered_set<int32_t> busy_shards_;
  int in_flight_ops_ = 0;

  // Deferred work that captures `this` and therefore must be cancelled on hand-off so a
  // successor orchestrator can take over without dangling callbacks: op retries waiting out
  // their backoff, and the §4.3 step-5 delayed drops of lingering old primaries.
  struct PendingLingerDrop {
    EventId timer;
    ShardId shard;
    ServerId server;
  };
  std::unordered_map<int64_t, EventId> retry_timers_;
  std::unordered_map<int64_t, PendingLingerDrop> linger_drops_;
  int64_t next_deferred_token_ = 1;
  Rng retry_rng_;

  EventId load_poll_timer_;
  EventId periodic_alloc_timer_;
  EventId publish_timer_;
  EventId emergency_timer_;
  int64_t liveness_watch_ = 0;
  bool fenced_ = false;       // permanently latched once the write fence rejects us
  bool handing_off_ = false;  // BeginHandoff in progress or finished
  std::function<void()> handoff_done_;
  int64_t abandoned_ops_ = 0;
  int64_t reconciled_ops_ = 0;

  int64_t map_version_ = 0;
  bool map_dirty_ = false;
  bool publish_scheduled_ = false;
  TimeMicros publish_due_ = 0;
  bool started_ = false;

  int64_t completed_moves_ = 0;
  int64_t graceful_migrations_ = 0;
  int64_t abrupt_migrations_ = 0;
  int64_t failed_ops_ = 0;
  int64_t splits_ = 0;  // committed splits
  int64_t merges_ = 0;  // committed merges
  std::vector<int32_t> retired_shard_ids_;  // reusable dense slots of merged-away shards

  static int64_t ReplicaKey(ShardId shard, int replica) {
    return (static_cast<int64_t>(shard.value) << 16) | static_cast<int64_t>(replica);
  }
};

}  // namespace shardman

#endif  // SRC_CORE_ORCHESTRATOR_H_
