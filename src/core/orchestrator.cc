#include "src/core/orchestrator.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/coord/record_codec.h"
#include "src/core/sm_library.h"
#include "src/obs/obs.h"

namespace shardman {

namespace {

const char* OpKindName(Orchestrator::OpKind kind) {
  switch (kind) {
    case Orchestrator::OpKind::kPlace:
      return "place";
    case Orchestrator::OpKind::kMoveSecondary:
      return "move_secondary";
    case Orchestrator::OpKind::kMovePrimary:
      return "move_primary";
    case Orchestrator::OpKind::kDrop:
      return "drop";
    case Orchestrator::OpKind::kPromote:
      return "promote";
    case Orchestrator::OpKind::kSplit:
      return "split";
    case Orchestrator::OpKind::kMerge:
      return "merge";
  }
  return "unknown";
}

}  // namespace

Orchestrator::Orchestrator(Simulator* sim, Network* network, CoordStore* coord,
                           ServiceDiscovery* discovery, ServerRegistry* registry,
                           SmAllocator* allocator, AppSpec spec, RegionId home_region,
                           OrchestratorConfig config)
    : sim_(sim),
      network_(network),
      coord_(coord),
      discovery_(discovery),
      registry_(registry),
      allocator_(allocator),
      spec_(std::move(spec)),
      home_region_(home_region),
      config_(config),
      assign_prefix_("/sm/" + spec_.name + "/assign/"),
      retry_rng_(config.retry_seed) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(network != nullptr);
  SM_CHECK(coord != nullptr);
  SM_CHECK(discovery != nullptr);
  SM_CHECK(registry != nullptr);
  SM_CHECK(allocator != nullptr);
  SM_CHECK(config_.write_fence != nullptr);
  SM_CHECK(config_.op_log_append != nullptr);
  SM_CHECK(config_.op_log_complete != nullptr);
}

Orchestrator::ReplicaRuntime& Orchestrator::Replica(ShardId shard, int replica) {
  SM_CHECK(shard.valid() && shard.value < static_cast<int32_t>(shards_.size()));
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  SM_CHECK_GE(replica, 0);
  SM_CHECK_LT(replica, static_cast<int>(rt.replicas.size()));
  return rt.replicas[static_cast<size_t>(replica)];
}

const Orchestrator::ReplicaRuntime& Orchestrator::Replica(ShardId shard, int replica) const {
  return const_cast<Orchestrator*>(this)->Replica(shard, replica);
}

void Orchestrator::Start() {
  SM_CHECK(!started_);
  SM_CHECK_OK(spec_.Validate());
  started_ = true;
  InitShards();
  PersistRanges();  // recovery reads live ranges even before the first split/merge
  TriggerEmergencyAllocation();
  StartTimersAndWatches();
}

void Orchestrator::LoadAssignmentsFromCoord() {
  for (const std::string& path : coord_->List(assign_prefix_)) {
    ServerId server(static_cast<int32_t>(std::stol(path.substr(assign_prefix_.size()))));
    Result<std::string> data = coord_->Get(path);
    if (!data.ok()) {
      continue;
    }
    const ServerHandle* handle = registry_->Get(server);
    for (const PersistedReplica& persisted : ParseAssignment(data.value())) {
      if (!persisted.shard.valid() ||
          persisted.shard.value >= static_cast<int32_t>(shards_.size())) {
        continue;
      }
      ShardRuntime& rt = shards_[static_cast<size_t>(persisted.shard.value)];
      if (persisted.replica < 0 ||
          persisted.replica >= static_cast<int>(rt.replicas.size())) {
        continue;
      }
      ReplicaRuntime& r = rt.replicas[static_cast<size_t>(persisted.replica)];
      r.role = persisted.role;
      Bind(persisted.shard, persisted.replica, server);
      if (handle != nullptr && handle->alive) {
        r.phase = ReplicaPhase::kReady;
      } else {
        // Server gone while the control plane was down: unbind and let the emergency pass
        // re-place the replica.
        Unbind(persisted.shard, persisted.replica);
        r.phase = ReplicaPhase::kPending;
      }
    }
    // Re-persist the reconciled view (as HandleServerGone does on the normal path). Without
    // this, a gone server's stale entries outlive the re-placement of its shards, and the
    // server would restore them — possibly as a second primary — when it returns.
    PersistServerAssignment(server);
  }
}

void Orchestrator::CancelTimersAndDeferred() {
  sim_->Cancel(load_poll_timer_);
  sim_->Cancel(periodic_alloc_timer_);
  sim_->Cancel(publish_timer_);
  sim_->Cancel(emergency_timer_);
  publish_scheduled_ = false;
  emergency_pending_ = false;
  for (auto& [server, timer] : server_timers_) {
    sim_->Cancel(timer);
  }
  server_timers_.clear();
  for (auto& [token, timer] : retry_timers_) {
    sim_->Cancel(timer);
  }
  retry_timers_.clear();
  // Step-5 delayed drops of lingering old primaries would run against a destroyed (or fenced)
  // orchestrator; execute them now (fire-and-forget, capturing nothing of `this`) — the
  // replacement recovers from the coordination store, where these copies are already
  // unassigned, so nobody else would ever clean them up. The drop body is fence-wrapped: if a
  // successor has already re-bound the shard to this server, the delivery-time fence rejects
  // the stale drop before it can destroy a live replica. A leaked forwarding-only copy is
  // harmless either way — the successor's AddShard re-assertion clears it.
  for (auto& [token, pending] : linger_drops_) {
    sim_->Cancel(pending.timer);
    if (!ShardBoundTo(pending.shard, pending.server)) {
      ShardId shard = pending.shard;
      CallControl(*network_, home_region_, *registry_, pending.server,
                  FenceWrapped([shard](ShardServerApi& api) { return api.DropShard(shard); }),
                  [](const Status&) {});
    }
  }
  linger_drops_.clear();
  lingering_forwarders_.clear();
  if (liveness_watch_ != 0) {
    coord_->Unwatch(liveness_watch_);
    liveness_watch_ = 0;
  }
}

// ---------------------------------------------------------------------------------------------
// Fencing / hand-off / reconciliation (DESIGN.md §11)
// ---------------------------------------------------------------------------------------------

bool Orchestrator::MayWrite() {
  if (fenced_) {
    return false;
  }
  if (config_.write_fence(config_.leadership_epoch)) {
    return true;
  }
  // The leader node no longer carries our epoch: leadership is gone for good (epochs only
  // grow), so latch the fence permanently rather than re-probing on every write.
  fenced_ = true;
  SM_COUNTER_INC("sm.smr.fencing_rejections");
  SM_TRACE_INSTANT("orchestrator", "fenced",
                   obs::Arg("epoch", config_.leadership_epoch));
  return false;
}

bool Orchestrator::PassesWriteFence() const {
  return !fenced_ && config_.write_fence(config_.leadership_epoch);
}

std::function<Status(ShardServerApi&)> Orchestrator::FenceWrapped(
    std::function<Status(ShardServerApi&)> fn) const {
  // Captures only the fence predicate and epoch — never `this` — so the wrapped body stays
  // safe even if it outlives the orchestrator (e.g. linger drops fired during hand-off).
  return [fence = config_.write_fence, epoch = config_.leadership_epoch,
          fn = std::move(fn)](ShardServerApi& api) {
    if (!fence(epoch)) {
      SM_COUNTER_INC("sm.smr.rpcs_fenced_at_delivery");
      return AbortedError("stale leadership epoch");
    }
    return fn(api);
  };
}

void Orchestrator::AbandonOp(const Op& op) {
  // A fenced instance must not retry, persist, publish, or pump — it only releases the op's
  // bookkeeping so the hand-off can complete. The successor reconciles the op from the log.
  SM_TRACE_END(op.trace, "orchestrator", OpKindName(op.kind), obs::Arg("abandoned", int64_t{1}));
  ++abandoned_ops_;
  SM_COUNTER_INC("sm.orchestrator.ops_abandoned");
  ReleaseInbound(op);
  busy_shards_.erase(op.shard.value);
  --in_flight_ops_;
  if (op.shard.valid() && op.shard.value < static_cast<int32_t>(shards_.size())) {
    ShardRuntime& rt = shards_[static_cast<size_t>(op.shard.value)];
    if (op.replica >= 0 && op.replica < static_cast<int>(rt.replicas.size())) {
      rt.replicas[static_cast<size_t>(op.replica)].op_queued = false;
    }
  }
  MaybeFinishHandoff();
}

void Orchestrator::MaybeFinishHandoff() {
  if (handing_off_ && in_flight_ops_ == 0 && handoff_done_) {
    std::function<void()> done = std::move(handoff_done_);
    handoff_done_ = nullptr;
    done();
  }
}

void Orchestrator::BeginHandoff(std::function<void()> drained) {
  if (handing_off_) {
    if (drained) {
      drained();
    }
    return;
  }
  handing_off_ = true;
  fenced_ = true;
  SM_COUNTER_INC("sm.smr.handoffs");
  handoff_done_ = std::move(drained);
  CancelTimersAndDeferred();
  // Queued-but-unstarted ops have no external footprint and no log entry: discard them. The
  // successor recomputes placement from the recovered state anyway.
  for (const Op& op : op_queue_) {
    if (op.shard.valid() && op.shard.value < static_cast<int32_t>(shards_.size())) {
      ShardRuntime& rt = shards_[static_cast<size_t>(op.shard.value)];
      if (op.replica >= 0 && op.replica < static_cast<int>(rt.replicas.size())) {
        rt.replicas[static_cast<size_t>(op.replica)].op_queued = false;
      }
    }
  }
  op_queue_.clear();
  // In-flight ops abandon themselves as their callbacks arrive (they observe fenced_).
  MaybeFinishHandoff();
}

void Orchestrator::LogOpStart(Op& op) {
  if (!MayWrite()) {
    return;  // a stale leader must not pollute the successor's log
  }
  PlacementOpRecord record;
  record.epoch = config_.leadership_epoch;
  record.kind = static_cast<int>(op.kind);
  record.shard = op.shard;
  record.replica = op.replica;
  record.from = op.from;
  record.to = op.to;
  op.log_seq = config_.op_log_append(record);
}

void Orchestrator::CountInbound(Op& op) {
  op.inbound = true;
  ++inbound_moves_[op.to.value];
  if (ServerRow* row = FindRow(op.to)) {
    ++row->inbound;
  }
}

void Orchestrator::ReleaseInbound(const Op& op) {
  if (!op.inbound) {
    return;
  }
  auto it = inbound_moves_.find(op.to.value);
  if (--it->second == 0) {
    inbound_moves_.erase(it);
  }
  if (ServerRow* row = FindRow(op.to)) {
    --row->inbound;
  }
}

void Orchestrator::LogOpComplete(const Op& op) {
  if (op.log_seq == 0 || !MayWrite()) {
    return;  // leave the entry for the successor's reconciliation pass
  }
  config_.op_log_complete(op.log_seq);
}

void Orchestrator::StartReconciled(const std::vector<PlacementOpRecord>& tail) {
  SM_CHECK(!started_);
  started_ = true;
  InitShards();
  // Ranges must load before assignments: committed splits may have grown the shard table past
  // the spec count, and their children's assignments only load into existing runtimes.
  LoadRangesFromCoord();
  LoadAssignmentsFromCoord();
  CleanupInactiveShards();
  // Resume the map version sequence monotonically from the persisted value.
  Result<std::string> version = coord_->Get("/sm/" + spec_.name + "/map_version");
  if (version.ok()) {
    map_version_ = std::stoll(version.value());
  }
  // Liveness may have changed while no leader was watching; reconcile before acting on the
  // recovered assignment so promotions/failovers fire for servers that died during the gap.
  ReconcileLiveness();
  for (const PlacementOpRecord& record : tail) {
    ReconcileOp(record);
  }
  MarkMapDirty(/*urgent=*/true);
  TriggerEmergencyAllocation();
  StartTimersAndWatches();
}

void Orchestrator::ReconcileLiveness() {
  const std::string live_prefix = "/sm/" + spec_.name + "/live/";
  for (ServerId id : registry_->ServersOf(spec_.id)) {
    bool has_node = coord_->Exists(live_prefix + std::to_string(id.value));
    bool alive = registry_->IsAlive(id);
    if (alive && !has_node) {
      // Session expired during the leadership gap and nobody reacted: treat as unplanned down.
      OnServerDown(id, /*planned=*/false);
    } else if (!alive && has_node) {
      OnServerUp(id);
    }
  }
}

void Orchestrator::ReconcileOp(const PlacementOpRecord& record) {
  if (!record.shard.valid() || record.shard.value >= static_cast<int32_t>(shards_.size())) {
    return;
  }
  ++reconciled_ops_;
  SM_COUNTER_INC("sm.smr.reconciled_ops");
  OpKind record_kind = static_cast<OpKind>(record.kind);
  if (record_kind == OpKind::kSplit || record_kind == OpKind::kMerge) {
    // Structural transactions reconcile through the persisted range table, not the record:
    // an *uncommitted* split's child never entered /sm/<app>/ranges, so LoadRangesFromCoord
    // already forgot it (leaked child copies on servers are unrouted and harmless); a merge
    // that committed but died mid-drop left its right shard inactive with bound replicas,
    // which CleanupInactiveShards has already dropped and retired. Nothing left to do here.
    return;
  }
  ShardId shard = record.shard;
  // A copy the dead leader created (or left lingering) on either endpoint that the recovered
  // assignment does not account for is a stray: drop it before it can shadow-own the shard.
  // If the recovered assignment *does* bind the endpoint, the copy is a live replica — leave
  // it, and let the AddShard re-assertions below restore its serving state.
  auto drop_stray = [&](ServerId server) {
    if (!server.valid() || ShardBoundTo(shard, server)) {
      return;
    }
    const ServerHandle* handle = registry_->Get(server);
    if (handle == nullptr || !handle->alive) {
      return;
    }
    SM_COUNTER_INC("sm.smr.reconcile_drops");
    CallControl(*network_, home_region_, *registry_, server,
                FenceWrapped([shard](ShardServerApi& api) { return api.DropShard(shard); }),
                [](const Status&) {});
  };
  drop_stray(record.to);
  drop_stray(record.from);
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  OpKind kind = static_cast<OpKind>(record.kind);
  if (kind == OpKind::kMovePrimary) {
    // Step 2 may have left the still-bound old primary forwarding into a target that was just
    // dropped; re-assert ownership (AddShard is an idempotent re-assertion that preserves data
    // and clears forwarding) so it serves directly again.
    for (ReplicaRuntime& r : rt.replicas) {
      if (r.role == ReplicaRole::kPrimary && r.phase == ReplicaPhase::kReady &&
          r.server.valid() && registry_->IsAlive(r.server)) {
        CallControl(*network_, home_region_, *registry_, r.server,
                    FenceWrapped([shard](ShardServerApi& api) {
                      return api.AddShard(shard, ReplicaRole::kPrimary);
                    }),
                    [](const Status&) {});
      }
    }
  } else if (kind == OpKind::kPromote && spec_.strategy == ReplicationStrategy::kPrimarySecondary) {
    // The promote RPC may have been sent but its completion never recorded. If the recovered
    // assignment has no primary for this shard, finish the promotion on the logged replica.
    bool has_primary = false;
    for (const ReplicaRuntime& r : rt.replicas) {
      if (r.role == ReplicaRole::kPrimary && r.server.valid()) {
        has_primary = true;
        break;
      }
    }
    if (!has_primary && record.replica >= 0 &&
        record.replica < static_cast<int>(rt.replicas.size())) {
      ReplicaRuntime& r = rt.replicas[static_cast<size_t>(record.replica)];
      if (r.phase == ReplicaPhase::kReady && r.server.valid() && registry_->IsAlive(r.server)) {
        r.role = ReplicaRole::kPrimary;
        PersistServerAssignment(r.server);
        CallControl(*network_, home_region_, *registry_, r.server,
                    FenceWrapped([shard](ShardServerApi& api) {
                      return api.AddShard(shard, ReplicaRole::kPrimary);
                    }),
                    [](const Status&) {});
      }
    }
  }
}

void Orchestrator::OnLivenessLost(ServerId server) {
  // Backup detection: only act if the cluster-manager channel has not already reported the
  // event (no give-up timer armed and the registry still believes the server is alive).
  if (server_timers_.count(server.value) > 0 || !registry_->IsAlive(server)) {
    return;
  }
  OnServerDown(server, /*planned=*/false);
}

void Orchestrator::OnLivenessRestored(ServerId server) {
  if (!registry_->IsAlive(server)) {
    OnServerUp(server);
  }
}

void Orchestrator::StartTimersAndWatches() {
  load_poll_timer_ = sim_->SchedulePeriodic(config_.load_poll_interval,
                                            config_.load_poll_interval,
                                            [this]() { PollLoads(); });
  periodic_alloc_timer_ =
      sim_->SchedulePeriodic(config_.periodic_alloc_interval, config_.periodic_alloc_interval,
                             [this]() { TriggerPeriodicAllocation(); });
  const std::string live_prefix = "/sm/" + spec_.name + "/live/";
  liveness_watch_ = coord_->Watch(live_prefix, [this, live_prefix](const WatchEvent& event) {
    ServerId server(static_cast<int32_t>(std::stol(event.path.substr(live_prefix.size()))));
    if (event.type == WatchEventType::kDeleted) {
      OnLivenessLost(server);
    } else if (event.type == WatchEventType::kCreated) {
      OnLivenessRestored(server);
    }
  });
}

void Orchestrator::InitShards() {
  const int metrics = spec_.placement.metrics.size();
  shards_.resize(static_cast<size_t>(spec_.num_shards()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardRuntime& rt = shards_[s];
    rt.range = spec_.shard_ranges[s];
    rt.active = true;
    rt.replicas.resize(static_cast<size_t>(spec_.replication_factor));
    for (size_t r = 0; r < rt.replicas.size(); ++r) {
      ReplicaRuntime& replica = rt.replicas[r];
      replica.load = ResourceVector(metrics);
      switch (spec_.strategy) {
        case ReplicationStrategy::kPrimaryOnly:
          replica.role = ReplicaRole::kPrimary;
          break;
        case ReplicationStrategy::kSecondaryOnly:
          replica.role = ReplicaRole::kSecondary;
          break;
        case ReplicationStrategy::kPrimarySecondary:
          replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
          break;
      }
    }
  }
  for (const RegionPreference& pref : spec_.region_preferences) {
    if (pref.shard.valid() && pref.shard.value < static_cast<int32_t>(shards_.size())) {
      ShardRuntime& rt = shards_[static_cast<size_t>(pref.shard.value)];
      rt.preferred_region = pref.region;
      rt.preference_weight = pref.weight;
      rt.min_replicas_in_preferred = pref.min_replicas;
    }
  }

}

// ---------------------------------------------------------------------------------------------
// Assignment bookkeeping
// ---------------------------------------------------------------------------------------------

void Orchestrator::Bind(ShardId shard, int replica, ServerId server) {
  ReplicaRuntime& r = Replica(shard, replica);
  int64_t key = ReplicaKey(shard, replica);
  if (r.server.valid()) {
    const size_t erased = server_replicas_[r.server.value].erase(key);
    if (ServerRow* row = FindRow(r.server)) {
      row->bound -= static_cast<int32_t>(erased);
      row->load_valid = false;
    }
  }
  r.server = server;
  if (server.valid()) {
    const bool inserted = server_replicas_[server.value].insert(key).second;
    if (ServerRow* row = FindRow(server)) {
      row->bound += inserted ? 1 : 0;
      row->load_valid = false;
    }
  }
}

void Orchestrator::Unbind(ShardId shard, int replica) { Bind(shard, replica, ServerId()); }

void Orchestrator::PersistServerAssignment(ServerId server) {
  if (!server.valid() || !MayWrite()) {
    return;
  }
  std::vector<PersistedReplica> replicas;
  auto it = server_replicas_.find(server.value);
  if (it != server_replicas_.end()) {
    replicas.reserve(it->second.size());
    for (int64_t key : it->second) {
      ShardId shard(static_cast<int32_t>(key >> 16));
      int replica = static_cast<int>(key & 0xFFFF);
      replicas.push_back({shard, replica, Replica(shard, replica).role});
    }
  }
  std::string path = assign_prefix_;
  AppendDecimal(path, server.value);
  SM_CHECK_OK(coord_->Set(path, SerializeAssignment(replicas)));
}

ShardMap Orchestrator::BuildMap() const {
  ShardMap map;
  map.app = spec_.id;
  map.version = map_version_ + 1;
  map.entries.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardMapEntry& entry = map.entries[s];
    entry.shard = ShardId(static_cast<int32_t>(s));
    // Retired shards and uncommitted split children publish an empty range: present in the
    // dense map, owning no keys. Both rows of a split/merge flip in a single publish, so
    // every published version partitions the key space exactly (invariant I8).
    entry.range = shards_[s].range;
    for (const ReplicaRuntime& r : shards_[s].replicas) {
      // Pending/adding/dropping replicas are not routable. Unavailable replicas stay in the map
      // (clients discover the failure by timing out), matching production behaviour where the
      // map is only updated on reassignment.
      if (r.phase == ReplicaPhase::kReady || r.phase == ReplicaPhase::kMigrating ||
          r.phase == ReplicaPhase::kUnavailable) {
        if (!r.server.valid()) {
          continue;
        }
        const ServerHandle* handle = registry_->Get(r.server);
        if (handle == nullptr) {
          continue;
        }
        ShardMapReplica replica;
        replica.server = r.server;
        replica.role = r.role;
        replica.region = handle->region;
        entry.replicas.push_back(replica);
      }
    }
  }
  return map;
}

void Orchestrator::MarkMapDirty(bool urgent) {
  map_dirty_ = true;
  // Urgent updates (migration step 4, promotions) publish within a short window; routine
  // updates coalesce longer. Coalescing bounds publish rate under heavy churn — safe because
  // graceful migration keeps the old owner forwarding until long after the publish, so clients
  // never observe a correctness gap, only marginally longer forwarding.
  TimeMicros delay = urgent ? config_.publish_urgent : config_.publish_coalesce;
  TimeMicros due = sim_->Now() + delay;
  if (publish_scheduled_ && due >= publish_due_) {
    return;  // An earlier-or-equal publish is already scheduled.
  }
  publish_scheduled_ = true;
  publish_due_ = due;
  publish_timer_ = sim_->Schedule(delay, [this, due]() {
    if (!map_dirty_ || publish_due_ != due) {
      return;  // Superseded by an earlier publish or already published.
    }
    publish_scheduled_ = false;
    PublishMap();
  });
}

void Orchestrator::PublishMap() {
  map_dirty_ = false;
  if (!MayWrite()) {
    SM_COUNTER_INC("sm.smr.publishes_fenced");
    return;  // A stale leader never publishes; the successor rebuilds and re-publishes.
  }
  ShardMap map = BuildMap();
  ++map_version_;
  SM_COUNTER_INC("sm.orchestrator.map_publishes");
  SM_FLIGHT("orchestrator", "map_publish",
            "app=" + spec_.name + " version=" + std::to_string(map_version_));
  discovery_->Publish(std::move(map));  // moved into the shared map; subscribers never copy it
  // Persisted so a replacement orchestrator continues the version sequence (§6.2).
  SM_CHECK_OK(coord_->Set("/sm/" + spec_.name + "/map_version", std::to_string(map_version_)));
}

// ---------------------------------------------------------------------------------------------
// Op engine
// ---------------------------------------------------------------------------------------------

TimeMicros Orchestrator::RetryBackoff(int attempts) {
  SM_CHECK_GE(attempts, 1);
  TimeMicros delay = config_.retry_backoff_base;
  for (int i = 1; i < attempts && delay < config_.retry_backoff_max; ++i) {
    delay *= 2;
  }
  if (delay > config_.retry_backoff_max) {
    delay = config_.retry_backoff_max;
  }
  double jitter = config_.retry_jitter;
  if (jitter > 0.0) {
    delay = static_cast<TimeMicros>(static_cast<double>(delay) *
                                    retry_rng_.Uniform(1.0 - jitter, 1.0 + jitter));
  }
  return delay < 1 ? 1 : delay;
}

void Orchestrator::EnqueueOp(Op op) {
  if (fenced_) {
    return;  // the successor owns placement now
  }
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  if (r.op_queued) {
    return;
  }
  r.op_queued = true;
  if (!op.trace.valid()) {
    op.trace = obs::DefaultTracer().NewTrace();
  }
  if (op.kind == OpKind::kPromote) {
    op_queue_.push_front(std::move(op));  // failover jumps the queue
  } else {
    op_queue_.push_back(std::move(op));
  }
  Pump();
}

void Orchestrator::Pump() {
  if (fenced_) {
    return;
  }
  const int cap = std::max(1, spec_.placement.max_concurrent_moves_per_app);
  while (in_flight_ops_ < cap) {
    // First queued op whose shard has no in-flight op AND whose target does not still host a
    // sibling replica of the same shard. Starting such an op would transiently co-locate two
    // replicas of one shard on one server — and since the server API is shard-keyed, the
    // sibling's eventual DropShard would destroy the newly arrived replica. When the plan
    // moves the sibling away in a later queued op, this op simply waits its turn; when no
    // such op exists (stale target), the target is re-picked at start time.
    auto it = op_queue_.end();
    for (auto candidate = op_queue_.begin(); candidate != op_queue_.end(); ++candidate) {
      if (busy_shards_.count(candidate->shard.value) > 0) {
        continue;
      }
      if (candidate->to.valid() && candidate->kind != OpKind::kDrop &&
          candidate->kind != OpKind::kPromote &&
          ShardBoundTo(candidate->shard, candidate->to)) {
        bool sibling_op_queued = false;
        for (const Op& other : op_queue_) {
          if (&other != &*candidate && other.shard == candidate->shard) {
            sibling_op_queued = true;
            break;
          }
        }
        if (sibling_op_queued) {
          continue;  // The sibling's own move will free the target; run that first.
        }
        candidate->to = ServerId();  // stale target: re-pick when the op starts
      }
      it = candidate;
      break;
    }
    if (it == op_queue_.end()) {
      return;
    }
    Op op = std::move(*it);
    op_queue_.erase(it);
    busy_shards_.insert(op.shard.value);
    ++in_flight_ops_;
    StartOp(std::move(op));
  }
}

void Orchestrator::StartOp(Op op) {
  SM_COUNTER_INC("sm.orchestrator.ops_started");
  SM_TRACE_BEGIN(op.trace, "orchestrator", OpKindName(op.kind),
                 obs::Arg("shard", static_cast<int64_t>(op.shard.value)) + "," +
                     obs::Arg("replica", static_cast<int64_t>(op.replica)) + "," +
                     obs::Arg("attempt", static_cast<int64_t>(op.attempts)) +
                     (op.parent.valid()
                          ? "," + obs::Arg("alloc_trace",
                                           static_cast<int64_t>(op.parent.value))
                          : std::string()));
  switch (op.kind) {
    case OpKind::kPlace:
      ExecutePlace(std::move(op));
      break;
    case OpKind::kMoveSecondary:
      ExecuteMoveSecondary(std::move(op));
      break;
    case OpKind::kMovePrimary:
      if (spec_.graceful_migration) {
        ExecuteMovePrimaryGraceful(std::move(op));
      } else {
        ExecuteMovePrimaryAbrupt(std::move(op));
      }
      break;
    case OpKind::kDrop:
      ExecuteDrop(std::move(op));
      break;
    case OpKind::kPromote:
      ExecutePromote(std::move(op));
      break;
    case OpKind::kSplit:
    case OpKind::kMerge:
      // Structural kinds exist only as op-log records; they are never enqueued.
      SM_CHECK(false);
      break;
  }
}

void Orchestrator::FinishOp(const Op& op, bool success) {
  SM_TRACE_END(op.trace, "orchestrator", OpKindName(op.kind), obs::Arg("ok", int64_t{success}));
  LogOpComplete(op);
  if (success) {
    SM_COUNTER_INC("sm.orchestrator.ops_completed");
  } else {
    SM_COUNTER_INC("sm.orchestrator.ops_failed");
  }
  ReleaseInbound(op);
  busy_shards_.erase(op.shard.value);
  --in_flight_ops_;
  ShardRuntime& rt = shards_[static_cast<size_t>(op.shard.value)];
  if (op.replica < static_cast<int>(rt.replicas.size())) {
    rt.replicas[static_cast<size_t>(op.replica)].op_queued = false;
  }
  if (success) {
    if (op.kind != OpKind::kPromote && op.kind != OpKind::kDrop) {
      ++completed_moves_;
      SM_COUNTER_INC("sm.orchestrator.moves_completed");
    }
    if (op.kind == OpKind::kPlace && rt.split_parent.valid()) {
      CommitSplitIfReady(op.shard);
    }
  } else {
    ++failed_ops_;
    Op retry = op;
    ++retry.attempts;
    if (retry.attempts < config_.max_op_attempts) {
      SM_COUNTER_INC("sm.orchestrator.ops_retried");
      // Re-pick the target on retry; the original may have died. The retry is a fresh attempt
      // as far as the op log is concerned (this attempt's entry was completed above).
      retry.to = ServerId();
      retry.inbound = false;
      retry.log_seq = 0;
      int64_t token = next_deferred_token_++;
      EventId timer = sim_->Schedule(RetryBackoff(retry.attempts), [this, retry, token]() {
        retry_timers_.erase(token);
        ReplicaRuntime& r = Replica(retry.shard, retry.replica);
        if (!r.op_queued) {
          Op again = retry;
          // Placement retries go through the emergency allocator instead when unassigned.
          if (again.kind == OpKind::kPlace) {
            TriggerEmergencyAllocation();
            return;
          }
          EnqueueOp(std::move(again));
        }
      });
      retry_timers_[token] = timer;
    } else if (op.kind == OpKind::kPlace) {
      TriggerEmergencyAllocation();
    }
  }
  if (op.from.valid()) {
    CheckDrainDone(op.from);
  }
  Pump();
}

void Orchestrator::ExecutePlace(Op op) {
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  ServerId target = op.to;
  if (!target.valid()) {
    target = PickDrainTarget(op.shard, ServerId());
  }
  if (!target.valid()) {
    r.phase = ReplicaPhase::kPending;
    FinishOp(op, /*success=*/false);
    return;
  }
  op.to = target;
  r.phase = ReplicaPhase::kAdding;
  CountInbound(op);
  LogOpStart(op);
  ShardId shard = op.shard;
  ReplicaRole role = r.role;
  CallControl(*network_, home_region_, *registry_, target,
              FenceWrapped([shard, role](ShardServerApi& api) {
                return api.AddShard(shard, role);
              }),
              [this, op](const Status& status) {
                if (fenced_) {
                  AbandonOp(op);
                  return;
                }
                ReplicaRuntime& r = Replica(op.shard, op.replica);
                if (status.ok()) {
                  Bind(op.shard, op.replica, op.to);
                  r.phase = ReplicaPhase::kReady;
                  PersistServerAssignment(op.to);
                  MarkMapDirty(/*urgent=*/false);
                  FinishOp(op, /*success=*/true);
                } else {
                  r.phase = ReplicaPhase::kPending;
                  FinishOp(op, /*success=*/false);
                }
              });
}

void Orchestrator::ExecuteMoveSecondary(Op op) {
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  if (r.phase != ReplicaPhase::kReady || r.server != op.from) {
    FinishOp(op, /*success=*/false);
    return;
  }
  if (!op.to.valid()) {
    op.to = PickDrainTarget(op.shard, op.from);
  }
  if (!op.to.valid()) {
    FinishOp(op, /*success=*/false);
    return;
  }
  r.phase = ReplicaPhase::kMigrating;
  r.move_target = op.to;
  CountInbound(op);
  LogOpStart(op);
  ShardId shard = op.shard;
  CallControl(*network_, home_region_, *registry_, op.to,
              FenceWrapped([shard](ShardServerApi& api) {
                return api.AddShard(shard, ReplicaRole::kSecondary);
              }),
              [this, op](const Status& status) {
                if (fenced_) {
                  AbandonOp(op);
                  return;
                }
                ReplicaRuntime& r = Replica(op.shard, op.replica);
                r.move_target = ServerId();
                if (!status.ok()) {
                  r.phase = ReplicaPhase::kReady;  // still serving on the old server
                  FinishOp(op, /*success=*/false);
                  return;
                }
                Bind(op.shard, op.replica, op.to);
                r.phase = ReplicaPhase::kReady;
                PersistServerAssignment(op.from);
                PersistServerAssignment(op.to);
                MarkMapDirty(/*urgent=*/false);
                ShardId shard = op.shard;
                if (!spec_.graceful_migration) {
                  // Release the old copy immediately (make-before-break with no grace window:
                  // clients on a stale map see "not owner" until their map refreshes). The op —
                  // and with it the per-shard concurrency slot — completes only after the drop
                  // is acknowledged, so a later move of this shard cannot land on op.from
                  // before the old copy is gone.
                  CallControl(*network_, home_region_, *registry_, op.from,
                              FenceWrapped([shard](ShardServerApi& api) {
                                return api.DropShard(shard);
                              }),
                              [this, op](const Status&) {
                                if (fenced_) {
                                  AbandonOp(op);
                                  return;
                                }
                                FinishOp(op, /*success=*/true);
                              });
                  return;
                }
                // Graceful variant: stale clients keep finding a responsive replica at the old
                // location for the whole dissemination window. The old copy forwards to the new
                // one (step 2 of §4.3 applied to secondaries), and the real drop happens after
                // the grace window (step 5), sharing the linger bookkeeping drains wait on.
                ServerId old_server = op.from;
                ServerId new_server = op.to;
                CallControl(*network_, home_region_, *registry_, old_server,
                            FenceWrapped([shard, new_server](ShardServerApi& api) {
                              return api.PrepareDropShard(shard, new_server,
                                                          ReplicaRole::kSecondary);
                            }),
                            [](const Status&) {});
                ++lingering_forwarders_[old_server.value];
                int64_t token = next_deferred_token_++;
                EventId timer =
                    sim_->Schedule(config_.drop_grace, [this, shard, old_server, token]() {
                      linger_drops_.erase(token);
                      auto release = [this, old_server]() {
                        auto it = lingering_forwarders_.find(old_server.value);
                        if (it != lingering_forwarders_.end() && --it->second <= 0) {
                          lingering_forwarders_.erase(it);
                        }
                        CheckDrainDone(old_server);
                      };
                      // Load balancing may have re-bound a replica of this shard to the old
                      // server during the grace window; the "old copy" is then a live replica
                      // and must not be dropped.
                      if (ShardBoundTo(shard, old_server)) {
                        release();
                        return;
                      }
                      CallControl(*network_, home_region_, *registry_, old_server,
                                  FenceWrapped([shard](ShardServerApi& api) {
                                    return api.DropShard(shard);
                                  }),
                                  [release](const Status&) { release(); });
                    });
                linger_drops_[token] = {timer, shard, old_server};
                FinishOp(op, /*success=*/true);
              });
}

void Orchestrator::ExecuteMovePrimaryGraceful(Op op) {
  // The 5-step protocol of §4.3. Throughout, the old primary keeps serving (and later
  // forwarding), so no client request is dropped.
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  if (r.phase != ReplicaPhase::kReady || r.server != op.from) {
    FinishOp(op, /*success=*/false);
    return;
  }
  if (!op.to.valid()) {
    op.to = PickDrainTarget(op.shard, op.from);
  }
  if (!op.to.valid()) {
    FinishOp(op, /*success=*/false);
    return;
  }
  r.phase = ReplicaPhase::kMigrating;
  r.move_target = op.to;
  CountInbound(op);
  LogOpStart(op);
  ShardId shard = op.shard;
  ServerId old_server = op.from;
  ServerId new_server = op.to;

  auto abort = [this, op](const char* step) {
    ReplicaRuntime& r = Replica(op.shard, op.replica);
    r.move_target = ServerId();
    r.phase = ReplicaPhase::kReady;
    SM_LOG(Debug) << "graceful migration aborted at " << step << " shard=" << op.shard.value;
    FinishOp(op, /*success=*/false);
  };

  // Step 1: prepare the new primary (accepts only forwarded primary requests until step 3).
  CallControl(
      *network_, home_region_, *registry_, new_server,
      FenceWrapped([shard, old_server](ShardServerApi& api) {
        return api.PrepareAddShard(shard, old_server, ReplicaRole::kPrimary);
      }),
      [this, op, shard, old_server, new_server, abort](const Status& s1) {
        if (fenced_) {
          AbandonOp(op);
          return;
        }
        if (!s1.ok()) {
          abort("prepare_add");
          return;
        }
        // Step 2: tell the old primary to forward all primary-type requests to the new one.
        CallControl(
            *network_, home_region_, *registry_, old_server,
            FenceWrapped([shard, new_server](ShardServerApi& api) {
              return api.PrepareDropShard(shard, new_server, ReplicaRole::kPrimary);
            }),
            [this, op, shard, old_server, new_server, abort](const Status& s2) {
              if (fenced_) {
                AbandonOp(op);
                return;
              }
              if (!s2.ok()) {
                // Clean up the prepared (but never activated) new replica.
                CallControl(*network_, home_region_, *registry_, new_server,
                            FenceWrapped([shard](ShardServerApi& api) {
                              return api.DropShard(shard);
                            }),
                            [](const Status&) {});
                abort("prepare_drop");
                return;
              }
              // Step 3: the new server officially holds the primary role.
              CallControl(
                  *network_, home_region_, *registry_, new_server,
                  FenceWrapped([shard](ShardServerApi& api) {
                    return api.AddShard(shard, ReplicaRole::kPrimary);
                  }),
                  [this, op, shard, old_server, new_server, abort](const Status& s3) {
                    if (fenced_) {
                      AbandonOp(op);
                      return;
                    }
                    if (!s3.ok()) {
                      // The new primary died — or executed the add but its response was lost
                      // (timeout). Reassert the old owner so it stops forwarding into a black
                      // hole, and drop the possibly-activated new replica so it cannot linger
                      // as a second owner.
                      CallControl(*network_, home_region_, *registry_, old_server,
                                  FenceWrapped([shard](ShardServerApi& api) {
                                    return api.AddShard(shard, ReplicaRole::kPrimary);
                                  }),
                                  [](const Status&) {});
                      CallControl(*network_, home_region_, *registry_, new_server,
                                  FenceWrapped([shard](ShardServerApi& api) {
                                    return api.DropShard(shard);
                                  }),
                                  [](const Status&) {});
                      abort("add_shard");
                      return;
                    }
                    ReplicaRuntime& r = Replica(op.shard, op.replica);
                    Bind(op.shard, op.replica, new_server);
                    r.move_target = ServerId();
                    r.phase = ReplicaPhase::kReady;
                    PersistServerAssignment(old_server);
                    PersistServerAssignment(new_server);
                    ++graceful_migrations_;
                    SM_COUNTER_INC("sm.orchestrator.migrations_graceful");
                    // Step 4: disseminate the new map immediately.
                    MarkMapDirty(/*urgent=*/true);
                    // Step 5: after a grace window (requests still trickling to the old
                    // primary are forwarded), drop the old replica.
                    ++lingering_forwarders_[old_server.value];
                    int64_t token = next_deferred_token_++;
                    EventId timer =
                        sim_->Schedule(config_.drop_grace, [this, shard, old_server, token]() {
                      linger_drops_.erase(token);
                      auto release = [this, old_server]() {
                        auto it = lingering_forwarders_.find(old_server.value);
                        if (it != lingering_forwarders_.end() && --it->second <= 0) {
                          lingering_forwarders_.erase(it);
                        }
                        CheckDrainDone(old_server);
                      };
                      // If load balancing has re-bound a replica of this shard to the old
                      // server during the grace window, the "old copy" is now a live replica:
                      // dropping it would destroy current state. Skip the drop.
                      if (ShardBoundTo(shard, old_server)) {
                        release();
                        return;
                      }
                      CallControl(*network_, home_region_, *registry_, old_server,
                                  FenceWrapped([shard](ShardServerApi& api) {
                                    return api.DropShard(shard);
                                  }),
                                  [release](const Status&) { release(); });
                    });
                    linger_drops_[token] = {timer, shard, old_server};
                    FinishOp(op, /*success=*/true);
                  });
            });
      });
}

void Orchestrator::ExecuteMovePrimaryAbrupt(Op op) {
  // Break-before-make (the "no graceful migration" ablation of Fig. 17): the shard is
  // unavailable from the drop until clients learn the new map.
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  if (r.phase != ReplicaPhase::kReady || r.server != op.from) {
    FinishOp(op, /*success=*/false);
    return;
  }
  if (!op.to.valid()) {
    op.to = PickDrainTarget(op.shard, op.from);
  }
  if (!op.to.valid()) {
    FinishOp(op, /*success=*/false);
    return;
  }
  r.phase = ReplicaPhase::kMigrating;
  r.abrupt_move = true;
  r.move_target = op.to;
  CountInbound(op);
  LogOpStart(op);
  ShardId shard = op.shard;
  ServerId new_server = op.to;
  CallControl(
      *network_, home_region_, *registry_, op.from,
      FenceWrapped([shard](ShardServerApi& api) { return api.DropShard(shard); }),
      [this, op, shard, new_server](const Status&) {
        if (fenced_) {
          AbandonOp(op);
          return;
        }
        CallControl(
            *network_, home_region_, *registry_, new_server,
            FenceWrapped([shard](ShardServerApi& api) {
              return api.AddShard(shard, ReplicaRole::kPrimary);
            }),
            [this, op](const Status& status) {
              if (fenced_) {
                AbandonOp(op);
                return;
              }
              ReplicaRuntime& r = Replica(op.shard, op.replica);
              r.abrupt_move = false;
              r.move_target = ServerId();
              if (status.ok()) {
                Bind(op.shard, op.replica, op.to);
                r.phase = ReplicaPhase::kReady;
                PersistServerAssignment(op.from);
                PersistServerAssignment(op.to);
                ++abrupt_migrations_;
                SM_COUNTER_INC("sm.orchestrator.migrations_abrupt");
                MarkMapDirty(/*urgent=*/true);
                FinishOp(op, /*success=*/true);
              } else {
                Unbind(op.shard, op.replica);
                r.phase = ReplicaPhase::kPending;
                PersistServerAssignment(op.from);
                FinishOp(op, /*success=*/false);
              }
            });
      });
}

void Orchestrator::ExecuteDrop(Op op) {
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  r.phase = ReplicaPhase::kDropping;
  LogOpStart(op);
  ShardId shard = op.shard;
  CallControl(*network_, home_region_, *registry_, op.from,
              FenceWrapped([shard](ShardServerApi& api) { return api.DropShard(shard); }),
              [this, op](const Status&) {
                if (fenced_) {
                  AbandonOp(op);
                  return;
                }
                Unbind(op.shard, op.replica);
                PersistServerAssignment(op.from);
                ShardRuntime& rt = shards_[static_cast<size_t>(op.shard.value)];
                // Scale-down always retires the highest replica index; see RemoveReplica (and
                // MergeShards, which enqueues its drops highest-index-first for the same
                // reason).
                SM_CHECK_EQ(op.replica, static_cast<int>(rt.replicas.size()) - 1);
                rt.replicas.pop_back();
                if (!rt.active && rt.replicas.empty()) {
                  RetireShard(op.shard);  // last copy of a merged-away shard is gone
                }
                MarkMapDirty(/*urgent=*/false);
                FinishOp(op, /*success=*/true);
              });
}

void Orchestrator::ExecutePromote(Op op) {
  ReplicaRuntime& r = Replica(op.shard, op.replica);
  if (r.phase != ReplicaPhase::kReady || r.server != op.from) {
    FinishOp(op, /*success=*/false);
    return;
  }
  LogOpStart(op);
  ShardId shard = op.shard;
  CallControl(*network_, home_region_, *registry_, op.from,
              FenceWrapped([shard](ShardServerApi& api) {
                return api.ChangeRole(shard, ReplicaRole::kSecondary, ReplicaRole::kPrimary);
              }),
              [this, op](const Status& status) {
                if (fenced_) {
                  AbandonOp(op);
                  return;
                }
                if (status.ok()) {
                  ReplicaRuntime& r = Replica(op.shard, op.replica);
                  r.role = ReplicaRole::kPrimary;
                  PersistServerAssignment(op.from);
                  SM_COUNTER_INC("sm.orchestrator.promotions");
                  MarkMapDirty(/*urgent=*/true);
                  FinishOp(op, /*success=*/true);
                } else {
                  FinishOp(op, /*success=*/false);
                }
              });
}

// ---------------------------------------------------------------------------------------------
// Lifecycle events
// ---------------------------------------------------------------------------------------------

void Orchestrator::OnServerDown(ServerId server, bool planned) {
  SM_COUNTER_INC("sm.orchestrator.server_down_events");
  SM_TRACE_INSTANT("orchestrator", "server_down",
                   obs::Arg("server", static_cast<int64_t>(server.value)) + "," +
                       obs::Arg("planned", int64_t{planned}));
  registry_->SetAlive(server, false);
  auto it = server_replicas_.find(server.value);
  if (it != server_replicas_.end()) {
    // Copy: promotions may rebind.
    std::vector<int64_t> keys(it->second.begin(), it->second.end());
    for (int64_t key : keys) {
      ShardId shard(static_cast<int32_t>(key >> 16));
      int replica = static_cast<int>(key & 0xFFFF);
      ReplicaRuntime& r = Replica(shard, replica);
      if (r.phase == ReplicaPhase::kReady || r.phase == ReplicaPhase::kMigrating) {
        r.phase = ReplicaPhase::kUnavailable;
      }
      if (r.role == ReplicaRole::kPrimary &&
          spec_.strategy == ReplicationStrategy::kPrimarySecondary) {
        PromoteSurvivor(shard, replica);
      }
    }
  }
  // Arm the give-up timer: planned restarts get more patience than unplanned failures.
  auto timer_it = server_timers_.find(server.value);
  if (timer_it != server_timers_.end()) {
    sim_->Cancel(timer_it->second);
  }
  TimeMicros wait = planned ? config_.planned_restart_patience : config_.failover_grace;
  server_timers_[server.value] =
      sim_->Schedule(wait, [this, server]() { HandleServerGone(server); });
}

void Orchestrator::OnServerUp(ServerId server) {
  SM_COUNTER_INC("sm.orchestrator.server_up_events");
  SM_TRACE_INSTANT("orchestrator", "server_up",
                   obs::Arg("server", static_cast<int64_t>(server.value)));
  registry_->SetAlive(server, true);
  auto timer_it = server_timers_.find(server.value);
  if (timer_it != server_timers_.end()) {
    sim_->Cancel(timer_it->second);
    server_timers_.erase(timer_it);
  }
  auto it = server_replicas_.find(server.value);
  if (it != server_replicas_.end()) {
    for (int64_t key : it->second) {
      ShardId shard(static_cast<int32_t>(key >> 16));
      int replica = static_cast<int>(key & 0xFFFF);
      ReplicaRuntime& r = Replica(shard, replica);
      if (r.phase == ReplicaPhase::kUnavailable) {
        // The SM library on the server reloaded the assignment from the coordination store
        // during boot (§3.2), so the replica is serving again.
        r.phase = ReplicaPhase::kReady;
      }
    }
  }
}

void Orchestrator::OnServerStopped(ServerId server) {
  registry_->SetAlive(server, false);
  HandleServerGone(server);
}

void Orchestrator::HandleServerGone(ServerId server) {
  server_timers_.erase(server.value);
  if (registry_->IsAlive(server)) {
    return;  // Recovered in the meantime.
  }
  auto it = server_replicas_.find(server.value);
  if (it == server_replicas_.end() || it->second.empty()) {
    return;
  }
  std::vector<int64_t> keys(it->second.begin(), it->second.end());
  bool any = false;
  for (int64_t key : keys) {
    ShardId shard(static_cast<int32_t>(key >> 16));
    int replica = static_cast<int>(key & 0xFFFF);
    ReplicaRuntime& r = Replica(shard, replica);
    if (r.phase == ReplicaPhase::kUnavailable) {
      Unbind(shard, replica);
      r.phase = ReplicaPhase::kPending;
      any = true;
    }
  }
  PersistServerAssignment(server);
  if (any) {
    SM_TRACE_INSTANT("orchestrator", "server_gone",
                     obs::Arg("server", static_cast<int64_t>(server.value)));
    MarkMapDirty(/*urgent=*/false);
    TriggerEmergencyAllocation();
  }
}

void Orchestrator::PromoteSurvivor(ShardId shard, int dead_replica) {
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  int survivor = -1;
  for (size_t i = 0; i < rt.replicas.size(); ++i) {
    const ReplicaRuntime& r = rt.replicas[i];
    if (static_cast<int>(i) != dead_replica && r.phase == ReplicaPhase::kReady &&
        r.role == ReplicaRole::kSecondary && !r.op_queued) {
      survivor = static_cast<int>(i);
      break;
    }
  }
  if (survivor < 0) {
    return;  // No promotable secondary; the shard loses write availability until recovery.
  }
  rt.replicas[static_cast<size_t>(dead_replica)].role = ReplicaRole::kSecondary;
  // Persist the demotion: when the dead server returns it restores its assignment from the
  // coordination store, and must come back as a secondary — not as a second primary.
  PersistServerAssignment(rt.replicas[static_cast<size_t>(dead_replica)].server);
  Op op;
  op.kind = OpKind::kPromote;
  op.shard = shard;
  op.replica = survivor;
  op.from = rt.replicas[static_cast<size_t>(survivor)].server;
  EnqueueOp(std::move(op));
}

// ---------------------------------------------------------------------------------------------
// Drain / demote (TaskController integration)
// ---------------------------------------------------------------------------------------------

void Orchestrator::DrainServer(ServerId server, bool drain_primaries, bool drain_secondaries,
                               std::function<void()> done) {
  server_draining_.insert(server.value);
  if (ServerRow* row = FindRow(server)) {
    row->draining = true;
  }
  DrainState state;
  state.primaries = drain_primaries;
  state.secondaries = drain_secondaries;
  state.done = std::move(done);
  drains_[server.value] = std::move(state);

  auto it = server_replicas_.find(server.value);
  if (it != server_replicas_.end()) {
    std::vector<int64_t> keys(it->second.begin(), it->second.end());
    for (int64_t key : keys) {
      ShardId shard(static_cast<int32_t>(key >> 16));
      int replica = static_cast<int>(key & 0xFFFF);
      ReplicaRuntime& r = Replica(shard, replica);
      bool match = (r.role == ReplicaRole::kPrimary && drain_primaries) ||
                   (r.role == ReplicaRole::kSecondary && drain_secondaries);
      if (!match || r.phase != ReplicaPhase::kReady || r.op_queued) {
        continue;
      }
      Op op;
      op.kind = r.role == ReplicaRole::kPrimary ? OpKind::kMovePrimary
                                                : OpKind::kMoveSecondary;
      op.shard = shard;
      op.replica = replica;
      op.from = server;
      EnqueueOp(std::move(op));
    }
  }
  CheckDrainDone(server);
}

void Orchestrator::CancelDrain(ServerId server) {
  server_draining_.erase(server.value);
  if (ServerRow* row = FindRow(server)) {
    row->draining = false;
  }
  drains_.erase(server.value);
}

void Orchestrator::CheckDrainDone(ServerId server) {
  auto drain_it = drains_.find(server.value);
  if (drain_it == drains_.end()) {
    return;
  }
  auto linger_it = lingering_forwarders_.find(server.value);
  if (linger_it != lingering_forwarders_.end() && linger_it->second > 0) {
    return;  // Old primaries on this server are still forwarding.
  }
  const DrainState& state = drain_it->second;
  if (HostsRole(server, state.primaries, state.secondaries)) {
    return;  // Still hosting a matching replica.
  }
  std::function<void()> done = std::move(drain_it->second.done);
  drains_.erase(drain_it);
  if (done) {
    done();
  }
}

void Orchestrator::DemotePrimariesOn(ServerId server) {
  if (spec_.strategy != ReplicationStrategy::kPrimarySecondary) {
    return;
  }
  auto it = server_replicas_.find(server.value);
  if (it == server_replicas_.end()) {
    return;
  }
  std::vector<int64_t> keys(it->second.begin(), it->second.end());
  for (int64_t key : keys) {
    ShardId shard(static_cast<int32_t>(key >> 16));
    int replica = static_cast<int>(key & 0xFFFF);
    ReplicaRuntime& r = Replica(shard, replica);
    if (r.role != ReplicaRole::kPrimary || r.phase != ReplicaPhase::kReady) {
      continue;
    }
    // Demote locally (fire-and-forget to the server) and promote a survivor elsewhere.
    r.role = ReplicaRole::kSecondary;
    ShardId shard_copy = shard;
    CallControl(*network_, home_region_, *registry_, server,
                FenceWrapped([shard_copy](ShardServerApi& api) {
                  return api.ChangeRole(shard_copy, ReplicaRole::kPrimary,
                                        ReplicaRole::kSecondary);
                }),
                [](const Status&) {});
    PromoteSurvivor(shard, replica);
  }
  PersistServerAssignment(server);  // demotions must survive the server's restart
  MarkMapDirty(/*urgent=*/true);
}

// ---------------------------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------------------------

bool Orchestrator::ShardBoundTo(ShardId shard, ServerId server) const {
  const ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  for (const ReplicaRuntime& r : rt.replicas) {
    if (r.server == server || r.move_target == server) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<ShardId, ReplicaRole>> Orchestrator::ReplicasOn(ServerId server) const {
  std::vector<std::pair<ShardId, ReplicaRole>> out;
  auto it = server_replicas_.find(server.value);
  if (it == server_replicas_.end()) {
    return out;
  }
  for (int64_t key : it->second) {
    ShardId shard(static_cast<int32_t>(key >> 16));
    int replica = static_cast<int>(key & 0xFFFF);
    out.emplace_back(shard, Replica(shard, replica).role);
  }
  return out;
}

bool Orchestrator::HostsRole(ServerId server, bool primaries, bool secondaries) const {
  auto it = server_replicas_.find(server.value);
  if (it == server_replicas_.end()) {
    return false;
  }
  for (int64_t key : it->second) {
    const ReplicaRole role =
        Replica(ShardId(static_cast<int32_t>(key >> 16)), static_cast<int>(key & 0xFFFF)).role;
    if ((role == ReplicaRole::kPrimary && primaries) ||
        (role == ReplicaRole::kSecondary && secondaries)) {
      return true;
    }
  }
  return false;
}

int Orchestrator::UnavailableReplicas(ShardId shard) const {
  const ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  int count = 0;
  for (const ReplicaRuntime& r : rt.replicas) {
    switch (r.phase) {
      case ReplicaPhase::kPending:
      case ReplicaPhase::kAdding:
      case ReplicaPhase::kUnavailable:
        ++count;
        break;
      case ReplicaPhase::kMigrating:
        if (r.abrupt_move) {
          ++count;
        }
        break;
      default:
        break;
    }
  }
  return count;
}

int Orchestrator::DownReplicas(ShardId shard) const {
  const ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  int count = 0;
  for (const ReplicaRuntime& r : rt.replicas) {
    if (r.phase == ReplicaPhase::kUnavailable ||
        (r.phase == ReplicaPhase::kMigrating && r.abrupt_move)) {
      ++count;
    }
  }
  return count;
}

double Orchestrator::ShardMeanReplicaLoad(ShardId shard) const {
  const ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  double total = 0.0;
  int count = 0;
  for (const ReplicaRuntime& r : rt.replicas) {
    if (r.phase == ReplicaPhase::kReady) {
      total += r.load.Total();
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

int Orchestrator::ReplicaCount(ShardId shard) const {
  return static_cast<int>(shards_[static_cast<size_t>(shard.value)].replicas.size());
}

ReplicaPhase Orchestrator::replica_phase(ShardId shard, int replica) const {
  return Replica(shard, replica).phase;
}

ServerId Orchestrator::replica_server(ShardId shard, int replica) const {
  return Replica(shard, replica).server;
}

ReplicaRole Orchestrator::replica_role(ShardId shard, int replica) const {
  return Replica(shard, replica).role;
}

const ResourceVector& Orchestrator::replica_load(ShardId shard, int replica) const {
  return Replica(shard, replica).load;
}

bool Orchestrator::server_draining(ServerId server) const {
  return server_draining_.count(server.value) > 0;
}

bool Orchestrator::AllReady() const {
  for (const ShardRuntime& rt : shards_) {
    for (const ReplicaRuntime& r : rt.replicas) {
      if (r.phase != ReplicaPhase::kReady) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------------------------
// Shard scaling
// ---------------------------------------------------------------------------------------------

Status Orchestrator::AddReplica(ShardId shard) {
  if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
    return InvalidArgumentError("unknown shard");
  }
  if (spec_.strategy == ReplicationStrategy::kPrimaryOnly) {
    return FailedPreconditionError("primary-only apps have exactly one replica per shard");
  }
  if (!shards_[static_cast<size_t>(shard.value)].active) {
    return FailedPreconditionError("shard retired by merge");
  }
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  ReplicaRuntime replica;
  replica.role = ReplicaRole::kSecondary;
  replica.load = ResourceVector(spec_.placement.metrics.size());
  rt.replicas.push_back(std::move(replica));
  Op op;
  op.kind = OpKind::kPlace;
  op.shard = shard;
  op.replica = static_cast<int>(rt.replicas.size()) - 1;
  EnqueueOp(std::move(op));
  return Status::Ok();
}

Status Orchestrator::RemoveReplica(ShardId shard) {
  if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
    return InvalidArgumentError("unknown shard");
  }
  if (!shards_[static_cast<size_t>(shard.value)].active) {
    return FailedPreconditionError("shard retired by merge");
  }
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  // Retire the highest-index secondary that is cleanly serving.
  for (int i = static_cast<int>(rt.replicas.size()) - 1; i >= 0; --i) {
    ReplicaRuntime& r = rt.replicas[static_cast<size_t>(i)];
    if (r.role == ReplicaRole::kSecondary && r.phase == ReplicaPhase::kReady && !r.op_queued &&
        i == static_cast<int>(rt.replicas.size()) - 1) {
      Op op;
      op.kind = OpKind::kDrop;
      op.shard = shard;
      op.replica = i;
      op.from = r.server;
      EnqueueOp(std::move(op));
      return Status::Ok();
    }
  }
  return FailedPreconditionError("no removable secondary replica");
}

void Orchestrator::SetRegionPreference(ShardId shard, RegionId region, double weight,
                                       int min_replicas) {
  SM_CHECK(shard.valid() && shard.value < static_cast<int32_t>(shards_.size()));
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  rt.preferred_region = region;
  rt.preference_weight = weight;
  rt.min_replicas_in_preferred = min_replicas;
}

// ---------------------------------------------------------------------------------------------
// Adaptive shard split/merge (DESIGN.md §15)
// ---------------------------------------------------------------------------------------------

KeyRange Orchestrator::shard_range(ShardId shard) const {
  if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
    return KeyRange{};
  }
  return shards_[static_cast<size_t>(shard.value)].range;
}

bool Orchestrator::shard_active(ShardId shard) const {
  if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
    return false;
  }
  return shards_[static_cast<size_t>(shard.value)].active;
}

int Orchestrator::active_shards() const {
  int count = 0;
  for (const ShardRuntime& rt : shards_) {
    if (rt.active && !rt.range.empty()) {
      ++count;
    }
  }
  return count;
}

ShardId Orchestrator::ShardForKey(uint64_t key) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].range.Contains(key)) {
      return ShardId(static_cast<int32_t>(s));
    }
  }
  return ShardId();
}

bool Orchestrator::structural_change_in_flight() const {
  for (const ShardRuntime& rt : shards_) {
    if (rt.split_child.valid()) {
      return true;  // split waiting on child placement
    }
    if (!rt.active && !rt.replicas.empty()) {
      return true;  // merged-away shard's copies still awaiting grace-window drops
    }
  }
  return false;
}

ShardId Orchestrator::AllocateShardId() {
  if (!retired_shard_ids_.empty()) {
    auto it = std::min_element(retired_shard_ids_.begin(), retired_shard_ids_.end());
    int32_t value = *it;
    retired_shard_ids_.erase(it);
    return ShardId(value);
  }
  shards_.emplace_back();
  return ShardId(static_cast<int32_t>(shards_.size()) - 1);
}

int64_t Orchestrator::LogStructuralOp(OpKind kind, ShardId shard, int replica, uint64_t aux) {
  if (!MayWrite()) {
    return 0;
  }
  PlacementOpRecord record;
  record.epoch = config_.leadership_epoch;
  record.kind = static_cast<int>(kind);
  record.shard = shard;
  record.replica = replica;
  record.aux = aux;
  return config_.op_log_append(record);
}

Status Orchestrator::SplitShard(ShardId shard, uint64_t split_key) {
  if (!started_ || fenced_) {
    return FailedPreconditionError("orchestrator not serving");
  }
  if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
    return InvalidArgumentError("unknown shard");
  }
  {
    ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
    if (!rt.active || rt.range.empty()) {
      return FailedPreconditionError("shard owns no keys");
    }
    if (rt.split_child.valid() || rt.split_parent.valid()) {
      return FailedPreconditionError("split already in flight");
    }
    if (split_key <= rt.range.begin || split_key >= rt.range.end) {
      return InvalidArgumentError("split key not strictly inside the shard's range");
    }
    for (const ReplicaRuntime& r : rt.replicas) {
      if (r.phase != ReplicaPhase::kReady || r.op_queued) {
        return FailedPreconditionError("shard not quiescent");
      }
    }
  }
  // AllocateShardId may reallocate shards_; re-take the parent reference afterwards.
  ShardId child = AllocateShardId();
  ShardRuntime& parent_rt = shards_[static_cast<size_t>(shard.value)];
  ShardRuntime& child_rt = shards_[static_cast<size_t>(child.value)];
  const int metrics = spec_.placement.metrics.size();
  child_rt = ShardRuntime{};
  child_rt.active = true;             // active but owning no keys until the commit publish
  child_rt.split_parent = shard;
  child_rt.preferred_region = parent_rt.preferred_region;
  child_rt.preference_weight = parent_rt.preference_weight;
  child_rt.min_replicas_in_preferred = parent_rt.min_replicas_in_preferred;
  child_rt.replicas.resize(parent_rt.replicas.size());
  for (size_t r = 0; r < child_rt.replicas.size(); ++r) {
    child_rt.replicas[r].role = parent_rt.replicas[r].role;
    // Claim half the parent's observed load for the child up front (the parent's own claim
    // is halved at commit): drain-target scoring must see each placement as real load, or a
    // cascade of splits piles every child onto whichever server looked emptiest first.
    child_rt.replicas[r].load = parent_rt.replicas[r].load.dims() == metrics
                                    ? parent_rt.replicas[r].load * 0.5
                                    : ResourceVector(metrics);
  }
  parent_rt.split_child = child;
  parent_rt.split_key = split_key;
  // Fence the transaction through the op log: a successor leader that finds this record
  // incomplete knows the split never committed (the child is absent from /sm/<app>/ranges)
  // and simply forgets it — leaked child copies are unrouted and dropped as strays.
  parent_rt.split_log_seq = LogStructuralOp(OpKind::kSplit, shard,
                                            /*replica=*/child.value, split_key);
  SM_COUNTER_INC("sm.hotspot.splits_started");
  SM_TRACE_INSTANT("orchestrator", "split_start",
                   obs::Arg("shard", static_cast<int64_t>(shard.value)) + "," +
                       obs::Arg("child", static_cast<int64_t>(child.value)));
  // Child replicas place through ordinary ops; the commit fires from FinishOp once all are
  // ready. A failed place falls back to the emergency allocator like any other placement.
  for (size_t r = 0; r < child_rt.replicas.size(); ++r) {
    Op op;
    op.kind = OpKind::kPlace;
    op.shard = child;
    op.replica = static_cast<int>(r);
    EnqueueOp(std::move(op));
  }
  return Status::Ok();
}

void Orchestrator::CommitSplitIfReady(ShardId child) {
  ShardRuntime& child_rt = shards_[static_cast<size_t>(child.value)];
  ShardId parent = child_rt.split_parent;
  if (!parent.valid()) {
    return;
  }
  for (const ReplicaRuntime& r : child_rt.replicas) {
    if (r.phase != ReplicaPhase::kReady) {
      return;
    }
  }
  CommitSplit(parent);
}

void Orchestrator::CommitSplit(ShardId parent) {
  ShardRuntime& parent_rt = shards_[static_cast<size_t>(parent.value)];
  ShardId child = parent_rt.split_child;
  SM_CHECK(child.valid());
  ShardRuntime& child_rt = shards_[static_cast<size_t>(child.value)];
  // The commit is one urgent publish flipping both rows: the parent shrinks to
  // [begin, split_key) and the child activates as [split_key, end) in the same map version,
  // so no published map ever has an unowned or doubly-owned key (invariant I8).
  child_rt.range = KeyRange{parent_rt.split_key, parent_rt.range.end};
  parent_rt.range.end = parent_rt.split_key;
  // The child claimed half the parent's load at split start; the parent sheds that half now
  // that the keys have actually moved. The next load poll replaces both estimates.
  for (ReplicaRuntime& r : parent_rt.replicas) {
    r.load *= 0.5;
  }
  for (ServerRow& row : rows_) {
    row.load_valid = false;
  }
  child_rt.split_parent = ShardId();
  parent_rt.split_child = ShardId();
  parent_rt.split_key = 0;
  ++splits_;
  SM_COUNTER_INC("sm.hotspot.splits");
  SM_TRACE_INSTANT("orchestrator", "split_commit",
                   obs::Arg("parent", static_cast<int64_t>(parent.value)) + "," +
                       obs::Arg("child", static_cast<int64_t>(child.value)));
  PersistRanges();
  MarkMapDirty(/*urgent=*/true);
  if (parent_rt.split_log_seq != 0 && MayWrite()) {
    config_.op_log_complete(parent_rt.split_log_seq);
  }
  parent_rt.split_log_seq = 0;
}

Status Orchestrator::MergeShards(ShardId left, ShardId right) {
  if (!started_ || fenced_) {
    return FailedPreconditionError("orchestrator not serving");
  }
  if (!left.valid() || left.value >= static_cast<int32_t>(shards_.size()) || !right.valid() ||
      right.value >= static_cast<int32_t>(shards_.size()) || left == right) {
    return InvalidArgumentError("bad shard pair");
  }
  ShardRuntime& left_rt = shards_[static_cast<size_t>(left.value)];
  ShardRuntime& right_rt = shards_[static_cast<size_t>(right.value)];
  if (!left_rt.active || !right_rt.active || left_rt.range.empty() || right_rt.range.empty()) {
    return FailedPreconditionError("shard owns no keys");
  }
  if (left_rt.range.end != right_rt.range.begin) {
    return InvalidArgumentError("shards not adjacent");
  }
  if (left_rt.split_child.valid() || left_rt.split_parent.valid() ||
      right_rt.split_child.valid() || right_rt.split_parent.valid()) {
    return FailedPreconditionError("split in flight on an endpoint");
  }
  for (const ShardRuntime* rt : {&left_rt, &right_rt}) {
    for (const ReplicaRuntime& r : rt->replicas) {
      if (r.phase != ReplicaPhase::kReady || r.op_queued) {
        return FailedPreconditionError("shard not quiescent");
      }
    }
  }
  right_rt.merge_log_seq = LogStructuralOp(OpKind::kMerge, left,
                                           /*replica=*/right.value, /*aux=*/0);
  // Commit first: one urgent publish extends left over right's keys and empties right's
  // range. Right's copies keep serving through the dissemination window — clients on the
  // pre-merge map still resolve right for those keys and find a live replica — and are only
  // dropped after drop_grace, exactly the §4.3 step-5 linger discipline.
  left_rt.range.end = right_rt.range.end;
  right_rt.range = KeyRange{};
  right_rt.active = false;
  ++merges_;
  SM_COUNTER_INC("sm.hotspot.merges");
  SM_TRACE_INSTANT("orchestrator", "merge_commit",
                   obs::Arg("left", static_cast<int64_t>(left.value)) + "," +
                       obs::Arg("right", static_cast<int64_t>(right.value)));
  PersistRanges();
  MarkMapDirty(/*urgent=*/true);
  int64_t token = next_deferred_token_++;
  EventId timer = sim_->Schedule(config_.drop_grace, [this, right, token]() {
    retry_timers_.erase(token);
    ShardRuntime& rt = shards_[static_cast<size_t>(right.value)];
    if (rt.active) {
      return;  // the id was already retired and reused; nothing to drop
    }
    if (rt.replicas.empty()) {
      RetireShard(right);
      return;
    }
    // Highest index first: ExecuteDrop retires the tail slot (see RemoveReplica), and the
    // per-shard busy set serializes the drops in enqueue order.
    for (int i = static_cast<int>(rt.replicas.size()) - 1; i >= 0; --i) {
      Op op;
      op.kind = OpKind::kDrop;
      op.shard = right;
      op.replica = i;
      op.from = rt.replicas[static_cast<size_t>(i)].server;
      EnqueueOp(std::move(op));
    }
  });
  // Registered with the retry timers so handoff/shutdown cancels it; an interrupted merge's
  // leftover copies are reconciled by the successor's CleanupInactiveShards pass.
  retry_timers_[token] = timer;
  return Status::Ok();
}

void Orchestrator::RetireShard(ShardId shard) {
  ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  SM_CHECK(!rt.active);
  SM_CHECK(rt.replicas.empty());
  if (rt.merge_log_seq != 0 && MayWrite()) {
    config_.op_log_complete(rt.merge_log_seq);
  }
  rt.merge_log_seq = 0;
  for (int32_t id : retired_shard_ids_) {
    if (id == shard.value) {
      return;
    }
  }
  retired_shard_ids_.push_back(shard.value);
}

void Orchestrator::PersistRanges() {
  if (!MayWrite()) {
    return;
  }
  // Format: "n=<total slots>;<id>:<begin>:<end>;..." with one triple per *active* shard.
  // Ids absent from the record are inactive (retired, or a split child whose commit never
  // happened — the record is rewritten only at commits).
  // One allocation: a triple of an id below 10^6 and two 64-bit keys takes at most 47 chars.
  std::string record = "n=";
  record.reserve(24 + shards_.size() * 48);
  AppendDecimal(record, shards_.size());
  record += ';';
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardRuntime& rt = shards_[s];
    if (!rt.active || rt.range.empty()) {
      continue;
    }
    AppendDecimal(record, s);
    record += ':';
    AppendDecimal(record, rt.range.begin);
    record += ':';
    AppendDecimal(record, rt.range.end);
    record += ';';
  }
  SM_CHECK_OK(coord_->Set("/sm/" + spec_.name + "/ranges", std::move(record)));
}

void Orchestrator::LoadRangesFromCoord() {
  Result<std::string> data = coord_->Get("/sm/" + spec_.name + "/ranges");
  if (!data.ok()) {
    return;  // no record: InitShards' spec-derived ranges stand
  }
  std::string_view text = data.value();
  std::string_view header;
  size_t total = 0;
  if (!text.starts_with("n=") || !NextField(&text, ';', &header) ||
      !ParseDecimal(header.substr(2), &total)) {
    return;
  }
  const int metrics = spec_.placement.metrics.size();
  while (shards_.size() < total) {
    // Re-create runtimes for shards a committed split added past the spec count, so their
    // persisted assignments load. Roles follow the spec's replication pattern.
    ShardRuntime rt;
    rt.replicas.resize(static_cast<size_t>(spec_.replication_factor));
    for (size_t r = 0; r < rt.replicas.size(); ++r) {
      ReplicaRuntime& replica = rt.replicas[r];
      replica.load = ResourceVector(metrics);
      switch (spec_.strategy) {
        case ReplicationStrategy::kPrimaryOnly:
          replica.role = ReplicaRole::kPrimary;
          break;
        case ReplicationStrategy::kSecondaryOnly:
          replica.role = ReplicaRole::kSecondary;
          break;
        case ReplicationStrategy::kPrimarySecondary:
          replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
          break;
      }
    }
    shards_.push_back(std::move(rt));
  }
  // The record is the complete truth about ownership: every slot starts unowned, then the
  // listed triples re-activate their shards.
  for (ShardRuntime& rt : shards_) {
    rt.range = KeyRange{};
    rt.active = false;
  }
  std::string_view triple;
  while (NextField(&text, ';', &triple)) {
    std::string_view id_field;
    std::string_view begin_field;
    size_t id = 0;
    KeyRange range;
    if (!NextField(&triple, ':', &id_field) || !NextField(&triple, ':', &begin_field) ||
        !ParseDecimal(id_field, &id) || !ParseDecimal(begin_field, &range.begin) ||
        !ParseDecimal(triple, &range.end) || id >= shards_.size()) {
      continue;
    }
    ShardRuntime& rt = shards_[id];
    rt.range = range;
    rt.active = true;
  }
}

void Orchestrator::CleanupInactiveShards() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardRuntime& rt = shards_[s];
    if (rt.active) {
      continue;
    }
    ShardId shard(static_cast<int32_t>(s));
    if (!rt.replicas.empty()) {
      // A merge committed but its leader died before the grace-window drops finished: drop
      // the surviving copies fire-and-forget (the drop_stray idiom) and release the slots.
      std::vector<ServerId> touched;
      for (ReplicaRuntime& r : rt.replicas) {
        if (!r.server.valid()) {
          continue;
        }
        touched.push_back(r.server);
        const ServerHandle* handle = registry_->Get(r.server);
        if (handle != nullptr && handle->alive) {
          CallControl(*network_, home_region_, *registry_, r.server,
                      FenceWrapped([shard](ShardServerApi& api) {
                        return api.DropShard(shard);
                      }),
                      [](const Status&) {});
        }
      }
      for (size_t i = 0; i < rt.replicas.size(); ++i) {
        if (rt.replicas[i].server.valid()) {
          Unbind(shard, static_cast<int>(i));
        }
      }
      rt.replicas.clear();
      for (ServerId server : touched) {
        PersistServerAssignment(server);
      }
    }
    RetireShard(shard);
  }
}

// ---------------------------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------------------------

PartitionSnapshot& Orchestrator::BuildSnapshot() {
  PartitionSnapshot& snapshot = snapshot_;
  snapshot.id = PartitionId(0);
  snapshot.config = spec_.placement;

  // Every field of every element is rewritten: the vectors keep their storage between rounds,
  // and the allocator writes its placement back into the replica states.
  const std::vector<ServerId>& servers = registry_->ServersOf(spec_.id);
  snapshot.servers.resize(servers.size());
  for (size_t i = 0; i < servers.size(); ++i) {
    const ServerHandle* handle = registry_->Get(servers[i]);
    ServerState& state = snapshot.servers[i];
    state.id = handle->id;
    state.machine = handle->machine;
    state.region = handle->region;
    state.data_center = handle->data_center;
    state.rack = handle->rack;
    state.capacity = handle->capacity;
    state.alive = handle->alive;
    state.draining = server_draining(handle->id);
  }
  std::sort(snapshot.servers.begin(), snapshot.servers.end(),
            [](const ServerState& a, const ServerState& b) { return a.id < b.id; });

  snapshot.shards.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardRuntime& rt = shards_[s];
    ShardDescriptor& desc = snapshot.shards[s];
    desc.id = ShardId(static_cast<int32_t>(s));
    desc.preferred_region = rt.preferred_region;
    desc.preference_weight = rt.preference_weight;
    desc.min_replicas_in_preferred = rt.min_replicas_in_preferred;
    // A merged-away shard lists no replicas: its remaining copies are mid-drop, never
    // placement candidates.
    desc.replicas.resize(rt.active ? rt.replicas.size() : 0);
    for (size_t i = 0; i < desc.replicas.size(); ++i) {
      const ReplicaRuntime& r = rt.replicas[i];
      ReplicaState& state = desc.replicas[i];
      state.id = ReplicaId(desc.id, static_cast<int32_t>(i));
      state.role = r.role;
      state.load = r.load;
      // Pending replicas are unassigned; replicas on dead servers keep their binding (the
      // allocator treats dead bins as unassigned anyway).
      state.server = r.phase == ReplicaPhase::kPending ? ServerId() : r.server;
    }
  }
  return snapshot;
}

void Orchestrator::ApplyAllocation(const AllocationResult& result, obs::TraceId alloc_trace) {
  for (const AssignmentChange& change : result.changes) {
    ShardId shard = change.replica.shard;
    int replica_idx = change.replica.index;
    if (!shard.valid() || shard.value >= static_cast<int32_t>(shards_.size())) {
      continue;
    }
    ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
    if (!rt.active) {
      continue;
    }
    if (replica_idx < 0 || replica_idx >= static_cast<int>(rt.replicas.size())) {
      continue;
    }
    ReplicaRuntime& r = rt.replicas[static_cast<size_t>(replica_idx)];
    if (r.op_queued) {
      continue;
    }
    Op op;
    op.shard = shard;
    op.replica = replica_idx;
    op.to = change.to;
    op.parent = alloc_trace;
    if (r.phase == ReplicaPhase::kPending) {
      op.kind = OpKind::kPlace;
    } else if (r.phase == ReplicaPhase::kReady) {
      op.from = r.server;
      op.kind = r.role == ReplicaRole::kPrimary ? OpKind::kMovePrimary
                                                : OpKind::kMoveSecondary;
    } else {
      continue;  // Unavailable/transitioning replicas are handled by their own paths.
    }
    EnqueueOp(std::move(op));
  }
}

void Orchestrator::TriggerEmergencyAllocation() {
  if (emergency_pending_) {
    return;
  }
  emergency_pending_ = true;
  // Small scheduling delay coalesces bursts of failures into one solver run.
  emergency_timer_ = sim_->Schedule(Millis(100), [this]() {
    emergency_pending_ = false;
    SM_COUNTER_INC("sm.orchestrator.allocs_emergency");
    obs::TraceId alloc_trace = obs::DefaultTracer().NewTrace();
    SM_TRACE_BEGIN(alloc_trace, "allocator", "emergency_allocation");
    PartitionSnapshot& snapshot = BuildSnapshot();
    AllocatorOptions opts = allocator_->options();
    opts.emergency_time_budget = config_.emergency_solver_budget;
    opts.emergency_eval_budget = config_.emergency_solver_evals;
    opts.solver_threads = config_.solver_threads;
    opts.solver_starts = config_.solver_starts;
    opts.trace_interval = 0;  // nothing reads a control-loop solve's convergence trace
    // Reuse the shared allocator (not a throwaway copy) so its warm-start cache carries the
    // previous round's placement into this solve. The sim thread serializes Trigger* calls.
    allocator_->set_options(opts);
    AllocationResult result = allocator_->Allocate(snapshot, AllocationMode::kEmergency);
    SM_TRACE_END(alloc_trace, "allocator", "emergency_allocation",
                 obs::Arg("changes", static_cast<int64_t>(result.changes.size())));
    ApplyAllocation(result, alloc_trace);
  });
}

void Orchestrator::TriggerPeriodicAllocation() {
  if (!op_queue_.empty() || in_flight_ops_ > 0) {
    return;  // Let the current wave settle first.
  }
  SM_COUNTER_INC("sm.orchestrator.allocs_periodic");
  obs::TraceId alloc_trace = obs::DefaultTracer().NewTrace();
  SM_TRACE_BEGIN(alloc_trace, "allocator", "periodic_allocation");
  PartitionSnapshot& snapshot = BuildSnapshot();
  AllocatorOptions opts = allocator_->options();
  opts.periodic_time_budget = config_.periodic_solver_budget;
  opts.periodic_eval_budget = config_.periodic_solver_evals;
  opts.solver_threads = config_.solver_threads;
  opts.solver_starts = config_.solver_starts;
  opts.trace_interval = 0;
  allocator_->set_options(opts);
  AllocationResult result = allocator_->Allocate(snapshot, AllocationMode::kPeriodic);
  SM_TRACE_END(alloc_trace, "allocator", "periodic_allocation",
               obs::Arg("changes", static_cast<int64_t>(result.changes.size())));
  ApplyAllocation(result, alloc_trace);
}

// ---------------------------------------------------------------------------------------------
// Load collection and drain-target selection
// ---------------------------------------------------------------------------------------------

void Orchestrator::PollLoads() {
  // The report is read synchronously; load collection does not sit on any latency-critical
  // path, so the RPC hop is elided in the simulation.
  SyncServerRows();
  for (ServerRow& row : rows_) {
    const ServerHandle& handle = *row.handle;
    if (!handle.alive || handle.api == nullptr) {
      continue;
    }
    handle.api->ReportLoads(row.report);
    for (const ShardLoadEntry& entry : row.report.entries) {
      if (!entry.shard.valid() ||
          entry.shard.value >= static_cast<int32_t>(shards_.size())) {
        continue;
      }
      ShardRuntime& rt = shards_[static_cast<size_t>(entry.shard.value)];
      for (ReplicaRuntime& r : rt.replicas) {
        if (r.server == handle.id && entry.load.dims() == r.load.dims()) {
          if (r.load != entry.load) {
            r.load = entry.load;
            row.load_valid = false;
          }
          break;
        }
      }
    }
  }
}

void Orchestrator::SyncServerRows() {
  if (registry_->size() == rows_synced_at_) {
    return;  // nobody registered since the last sync
  }
  rows_synced_at_ = registry_->size();
  for (ServerId id : registry_->ServersOf(spec_.id)) {
    if (!row_of_.try_emplace(id.value, static_cast<int32_t>(rows_.size())).second) {
      continue;
    }
    ServerRow& row = rows_.emplace_back();
    row.handle = registry_->Get(id);
    auto replicas = server_replicas_.find(id.value);
    row.bound = replicas == server_replicas_.end() ? 0
                                                   : static_cast<int32_t>(replicas->second.size());
    auto inbound = inbound_moves_.find(id.value);
    row.inbound = inbound == inbound_moves_.end() ? 0 : inbound->second;
    row.draining = server_draining_.count(id.value) > 0;
  }
}

Orchestrator::ServerRow* Orchestrator::FindRow(ServerId server) {
  auto it = row_of_.find(server.value);
  return it == row_of_.end() ? nullptr : &rows_[static_cast<size_t>(it->second)];
}

double Orchestrator::SumLoads(ServerId server) const {
  double total = 0.0;
  auto it = server_replicas_.find(server.value);
  if (it != server_replicas_.end()) {
    for (int64_t key : it->second) {
      ShardId shard(static_cast<int32_t>(key >> 16));
      int replica = static_cast<int>(key & 0xFFFF);
      total += Replica(shard, replica).load.Total();
    }
  }
  return total;
}

double Orchestrator::LoadTotal(const ServerRow& row) const {
  // Summed in server_replicas_ order: a cached total is bit-identical to a fresh re-sum.
  if (!row.load_valid) {
    row.load_total = SumLoads(row.handle->id);
    row.load_valid = true;
  }
  return row.load_total;
}

double Orchestrator::ServerLoadScore(ServerId server) const {
  const ServerHandle* handle = registry_->Get(server);
  if (handle == nullptr) {
    return 1e9;
  }
  auto it = row_of_.find(server.value);
  const double total =
      it == row_of_.end() ? SumLoads(server) : LoadTotal(rows_[static_cast<size_t>(it->second)]);
  return total / std::max(1e-9, handle->capacity.Total());
}

ServerId Orchestrator::PickDrainTarget(ShardId shard, ServerId from) {
  SyncServerRows();
  const ShardRuntime& rt = shards_[static_cast<size_t>(shard.value)];
  RegionId preferred = rt.preferred_region;
  RegionId from_region;
  if (from.valid()) {
    const ServerHandle* from_handle = registry_->Get(from);
    if (from_handle != nullptr) {
      from_region = from_handle->region;
    }
  }

  // An argmin over a total order, so the rows' order does not matter.
  const ServerRow* best = nullptr;
  double best_score = 0.0;
  int32_t best_count = 0;
  int best_tier = 3;
  for (const ServerRow& row : rows_) {
    const ServerHandle& handle = *row.handle;
    if (handle.id == from || !handle.alive || row.draining) {
      continue;
    }
    // Servers already hosting a replica of this shard are excluded (server-level spread).
    bool occupied = false;
    for (const ReplicaRuntime& r : rt.replicas) {
      occupied |= r.server == handle.id;
    }
    if (occupied) {
      continue;
    }
    // Tier 0: the shard's preferred region; tier 1: the replica's current region (locality);
    // tier 2: anywhere. Within a tier, least loaded wins; equal loads (every load is 0 before
    // the first poll) go to the server with fewer replicas, bound or inbound, then to the
    // lower id.
    int tier = 2;
    if (preferred.valid() && handle.region == preferred) {
      tier = 0;
    } else if (from_region.valid() && handle.region == from_region) {
      tier = 1;
    }
    // The same expression as ServerLoadScore.
    const double score = LoadTotal(row) / std::max(1e-9, handle.capacity.Total());
    // Replicas on their way count too: a drain starts its moves in one instant, before any
    // of them binds.
    const int32_t count = row.bound + row.inbound;
    bool better = best == nullptr || tier < best_tier;
    if (!better && tier == best_tier) {
      better = score != best_score   ? score < best_score
               : count != best_count ? count < best_count
                                     : handle.id < best->handle->id;
    }
    if (better) {
      best = &row;
      best_tier = tier;
      best_score = score;
      best_count = count;
    }
  }
  return best == nullptr ? ServerId() : best->handle->id;
}

}  // namespace shardman
