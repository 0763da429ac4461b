// ShardHostBase: common application-server scaffolding implementing the SM programming model
// (Fig. 11) and the server side of the graceful primary-migration protocol (§4.3).
//
// Concrete applications (KV store, replicated store, queue) subclass this and supply
// ApplyRequest(); the base owns the per-shard ownership state machine:
//
//   kServing       — owns the shard; serves requests.
//   kPreparingAdd  — received prepare_add_shard: will take over; serves only requests forwarded
//                    by the current owner until add_shard arrives.
//   kForwarding    — received prepare_drop_shard: still nominally the owner, but forwards every
//                    request to the new owner so nothing is dropped while clients catch up.
//
// The base also implements load reporting (base per-shard load + measured request rate) and
// crash semantics (OnCrash clears all soft state — §2.4 options 2/3 rebuild it externally).

#ifndef SRC_APPS_SHARD_HOST_BASE_H_
#define SRC_APPS_SHARD_HOST_BASE_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/server_api.h"
#include "src/core/server_registry.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace shardman {

enum class LocalShardState {
  kServing,
  kPreparingAdd,
  kForwarding,
};

class ShardHostBase : public ShardServerApi {
 public:
  ShardHostBase(Simulator* sim, Network* network, ServerRegistry* registry, ServerId self,
                RegionId region, int metric_dims);

  // -- SM programming model (Fig. 11) -----------------------------------------------------------
  Status AddShard(ShardId shard, ReplicaRole role) override;
  Status DropShard(ShardId shard) override;
  Status ChangeRole(ShardId shard, ReplicaRole current, ReplicaRole next) override;
  Status PrepareAddShard(ShardId shard, ServerId current_owner, ReplicaRole role) override;
  Status PrepareDropShard(ShardId shard, ServerId new_owner, ReplicaRole role) override;
  void ReportLoads(ShardLoadReport& report) override;
  void HandleRequest(const Request& request, ReplyCallback done) override;

  // -- Simulation hooks --------------------------------------------------------------------------
  // Container crash / state-losing restart: all shards and data vanish.
  void OnCrash();

  // Static component of a shard's reported load (the workload assigns intrinsic shard loads).
  void SetShardBaseLoad(ShardId shard, ResourceVector load);
  // Fallback used when a shard with no explicit base load is added (shared by all servers of a
  // deployment; avoids materializing per-server copies of large load tables).
  void set_base_load_fn(std::function<ResourceVector(ShardId)> fn) {
    base_load_fn_ = std::move(fn);
  }
  // Incremental cost added to metric 0 per request/second observed since the last report.
  void set_request_rate_cost(double cost) { request_rate_cost_ = cost; }
  void set_processing_delay(TimeMicros delay) { processing_delay_ = delay; }
  // Opt-in finite-capacity service model (DESIGN.md §15): at `requests_per_second` > 0 the
  // server serves requests FIFO at that rate — each request occupies the server for
  // 1/rate seconds and waits behind the requests already accepted, so a hotspotted server
  // shows real queueing delay instead of the fixed processing_delay. 0 (the default) keeps
  // the infinite-server behavior byte-identical to historical runs.
  void set_service_rate(double requests_per_second) { service_rate_ = requests_per_second; }
  // Load shedding for the finite-capacity model: a request that would wait longer than this
  // behind the FIFO queue is rejected immediately (ResourceExhausted) instead of being
  // accepted as zombie work the caller already timed out on. 0 (default) = never shed.
  void set_queue_limit(TimeMicros limit) { queue_limit_ = limit; }
  int64_t shed() const { return shed_; }
  // Current queueing backlog under the finite-capacity model (0 when disabled or idle).
  TimeMicros service_backlog() const {
    TimeMicros now = sim_->Now();
    return busy_until_ > now ? busy_until_ - now : 0;
  }
  // Secondary replicas accept writes (secondary-only applications).
  void set_allow_writes_on_secondary(bool allow) { allow_writes_on_secondary_ = allow; }

  // -- Introspection (tests and invariant checks) ------------------------------------------------
  bool Hosts(ShardId shard) const;
  bool Serving(ShardId shard) const;
  // True if this server accepts *non-forwarded* primary-type requests for the shard right now.
  // The single-owner invariant (§2.2.3) is: at most one server per shard returns true.
  bool AcceptsDirectWrites(ShardId shard) const;
  int HostedShardCount() const { return static_cast<int>(shards_.size()); }
  ServerId id() const { return self_; }
  RegionId region() const { return region_; }

  int64_t served_requests() const { return served_; }
  int64_t forwarded_requests() const { return forwarded_; }
  int64_t rejected_requests() const { return rejected_; }

 protected:
  struct LocalShard {
    LocalShardState state = LocalShardState::kServing;
    ReplicaRole role = ReplicaRole::kSecondary;
    ServerId forward_to;     // kForwarding
    ServerId expected_from;  // kPreparingAdd
    ResourceVector base_load;
    int64_t requests_since_report = 0;
    // Ownership epoch: bumped on every AddShard; lets applications fence stale owners.
    int64_t epoch = 0;
  };

  // Applies a request that this server has decided to serve. Runs after processing_delay.
  virtual Reply ApplyRequest(LocalShard& shard, const Request& request) = 0;
  // Lifecycle hooks for subclasses.
  virtual void OnShardAdded(ShardId shard, LocalShard& state) {}
  virtual void OnShardDropped(ShardId shard) {}
  virtual void OnCrashExtra() {}

  LocalShard* FindShard(ShardId shard);
  const LocalShard* FindShard(ShardId shard) const;
  // Monotone ownership epoch (time-derived; see .cc).
  int64_t NextEpoch(int64_t previous) const;

  Simulator* sim_;
  Network* network_;
  ServerRegistry* registry_;
  ServerId self_;
  RegionId region_;
  int metric_dims_;

 private:
  // A request accepted for service, waiting out its processing delay in queued_.
  struct QueuedRequest {
    Request request;
    ReplyCallback done;
  };

  void Serve(const Request& request, ReplyCallback done);
  void Complete(uint32_t slot);
  void Forward(const LocalShard& shard, const Request& request, ReplyCallback done);

  std::unordered_map<int32_t, LocalShard> shards_;
  std::unordered_map<int32_t, ResourceVector> pending_base_loads_;  // set before shard added
  // Pooled so the completion event carries only {this, slot} inline.
  std::vector<QueuedRequest> queued_;
  std::vector<uint32_t> free_queued_;
  std::function<ResourceVector(ShardId)> base_load_fn_;
  TimeMicros processing_delay_ = Millis(1);
  double service_rate_ = 0.0;
  TimeMicros busy_until_ = 0;
  TimeMicros queue_limit_ = 0;
  int64_t shed_ = 0;
  double request_rate_cost_ = 0.0;
  bool allow_writes_on_secondary_ = false;
  TimeMicros last_report_ = 0;

  int64_t served_ = 0;
  int64_t forwarded_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace shardman

#endif  // SRC_APPS_SHARD_HOST_BASE_H_
