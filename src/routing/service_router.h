// ServiceRouter: the client-side library (§3.2/§3.3).
//
// Mirrors the paper's client API: a client asks for the server responsible for a key
// (get_client(app, key)) and sends requests there. The router:
//   * maintains a (possibly stale) local view of the shard map, updated via service discovery —
//     the shared published snapshot until the first delta, then a private copy it patches;
//   * resolves key -> shard through the app's key ranges (app-key abstraction, §3.1);
//   * routes writes to the primary and reads/scans to the lowest-latency replica from the
//     client's region;
//   * retries with backoff on failures and wrong-owner responses, re-resolving the (by then
//     hopefully refreshed) map on each attempt.
//
// Hot-path design (DESIGN.md §9): on every map application the router builds a per-version
// routing cache — for each shard, the primary plus the replicas ranked by expected latency from
// the client's region (ExpectedLatency is deterministic per region pair). PickTarget is then an
// array lookup plus one seeded rotation draw inside the equidistant first tier; no per-request
// allocation, latency query or sort. The cache is invalidated only by the next map version.
//
// Delta dissemination (DESIGN.md §10): the router subscribes delta-capable. A delivered delta
// is applied to a ShardMapView (a private copy materialized once, on the first delta after
// a snapshot) and the routing cache is *patched* — only the changed shards' rows are re-ranked,
// appended to the flat replica array, and their index entries repointed — so apply cost is
// O(changed shards) instead of O(total shards). The invariant the equivalence tests pin: a
// patched cache is indistinguishable from a full rebuild at the same version (identical
// PickTarget decisions for the same seed and request stream). Stale rows left behind by
// patches are compacted in place once they outnumber live rows.

#ifndef SRC_ROUTING_SERVICE_ROUTER_H_
#define SRC_ROUTING_SERVICE_ROUTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/app_spec.h"
#include "src/core/server_registry.h"
#include "src/discovery/service_discovery.h"
#include "src/obs/request_accounting.h"
#include "src/sim/network.h"

namespace shardman {

struct RouterConfig {
  int max_attempts = 4;
  TimeMicros retry_backoff = Millis(50);
  TimeMicros request_timeout = Millis(500);
};

struct RequestOutcome {
  bool success = false;
  Status status;
  TimeMicros latency = 0;  // send to final reply, including retries
  int attempts = 0;
  ServerId served_by;
};

class ServiceRouter {
 public:
  ServiceRouter(Simulator* sim, Network* network, ServiceDiscovery* discovery,
                ServerRegistry* registry, const AppSpec* spec, RegionId client_region,
                RouterConfig config, uint64_t seed);
  // Unsubscribes from discovery: no map delivery reaches a destroyed router.
  ~ServiceRouter();
  ServiceRouter(const ServiceRouter&) = delete;
  ServiceRouter& operator=(const ServiceRouter&) = delete;

  // Routes one request; `done` fires with the outcome (after retries). A request routed
  // before the first map delivery waits for it, then resolves its shard against that map.
  void Route(uint64_t key, RequestType type, std::function<void(const RequestOutcome&)> done);
  void Route(uint64_t key, RequestType type, uint64_t payload,
             std::function<void(const RequestOutcome&)> done);

  // The client's current view of the map (possibly stale). Null before first delivery.
  const ShardMap* map() const { return view_.map(); }
  RegionId region() const { return client_region_; }

  // Resolves a key to its shard against this client's current view. Published key ranges win
  // (one binary search over the sorted range index, rebuilt only when a publish actually moved
  // a boundary — split/merge commits, DESIGN.md §15); before the first map delivery, or when
  // the map carries no ranges at all, the spec's static ranges stand. Exposed so tests can pin
  // the stale-map routing contract (I8: every key resolves at every published version).
  ShardId ResolveShard(uint64_t key) const;

  // Attaches per-request RED accounting (DESIGN.md §12). `stripe` selects the accountant
  // stripe this router writes — give concurrent writers distinct stripes. Registers the
  // router's app for an app slot; pass nullptr to detach. No routing decision changes.
  void SetAccounting(obs::RequestAccountant* accountant, int stripe);
  obs::RequestAccountant* accounting() const { return accountant_; }

  // Attaches a gray-replica demotion view: `flags[server.value] != 0` marks a server demoted
  // and PickTarget prefers healthy replicas over it (falling back to demoted ones when no
  // healthy candidate remains, so availability never regresses). The flags array must stay
  // valid and fixed-size while attached (GrayHealthScorer::gray_flags() satisfies this); pass
  // nullptr to detach. With no demoted server the pick sequence is bit-identical to the
  // detached router — same rotation draws, same candidates.
  void SetDemotionView(const uint8_t* flags, int32_t count);

  int64_t requests_sent() const { return requests_sent_; }
  // Routing-cache rebuilds so far (== snapshot map applications); tests assert invalidation.
  int64_t cache_rebuilds() const { return cache_rebuilds_; }
  // Incremental cache patches so far (== delta applications); stays 0 with deltas off.
  int64_t cache_patches() const { return cache_patches_; }
  // In-place compactions of the flat replica array (patching leaves dead rows behind).
  int64_t cache_compactions() const { return cache_compactions_; }

  // Exposes the target-selection fast path for benchmarks and allocation tests; behaves exactly
  // like the selection performed inside Route.
  ServerId PickTargetForBench(const Request& request, int attempt, ServerId exclude) {
    return PickTarget(request, attempt, exclude);
  }

 private:
  // One routed request across its attempts, pooled in attempts_: in-flight closures carry
  // only {this, slot}, which std::function and SmallFunction store inline.
  struct Attempt {
    Request request;
    int attempt = 1;
    TimeMicros started_at = 0;
    // When this attempt (not the whole request) hit the wire; attempt latency for RED
    // accounting and timeout classification.
    TimeMicros sent_at = 0;
    // The server this attempt was sent to (so a timed-out attempt with no reply still knows
    // whom to exclude next).
    ServerId target;
    // The server that failed the previous attempt; excluded from re-selection when an
    // alternative replica exists.
    ServerId exclude;
    std::function<void(const RequestOutcome&)> done;
  };

  // One shard's cached routing entry; replicas_[replica_begin, replica_begin+replica_count)
  // are ranked by (expected latency from the client region, map order).
  struct CachedShard {
    ServerId primary;            // invalid when the map has no primary for the shard
    uint32_t replica_begin = 0;
    uint16_t replica_count = 0;
    uint16_t first_tier = 0;     // replicas sharing the lowest expected latency
    KeyRange range;              // owned keys at the cached version; detects boundary moves
  };
  // One row of the sorted key-range index: range_index_ holds every non-empty cached range
  // ordered by begin, so ResolveShard is a single upper_bound.
  struct RangeRow {
    uint64_t begin = 0;
    uint64_t end = 0;
    ShardId shard;
  };
  struct RankedReplica {
    ServerId server;
    TimeMicros latency = 0;
  };

  void ApplyMap(const std::shared_ptr<const ShardMap>& map);
  void ApplyDelta(const std::shared_ptr<const ShardMapDelta>& delta);
  void RebuildCache();
  // Re-ranks only the delta's changed shards; must leave the cache identical (as observed by
  // PickTarget) to a full rebuild at the same version.
  void PatchCache(const ShardMapDelta& delta);
  // Rewrites ranked_ in cache order, dropping rows orphaned by patches.
  void CompactRanked();
  // Rebuilds range_index_ from the cached per-shard ranges. Called on every snapshot rebuild
  // and on delta patches that changed a boundary; steady-state deltas (load moves) skip it.
  void RebuildRangeIndex();
  // Ranks one shard's replicas at the end of ranked_ and points `cached` at the new run.
  void RankShard(const ShardMapEntry& entry, CachedShard* cached);
  // Picks the target server for this attempt, or an invalid id if the map has no candidate;
  // records the pick into the attached accountant. SelectTarget is the decision itself.
  ServerId PickTarget(const Request& request, int attempt, ServerId exclude);
  ServerId SelectTarget(const Request& request, int attempt, ServerId exclude);
  bool IsDemoted(ServerId server) const {
    return demoted_ != nullptr && static_cast<uint32_t>(server.value) <
                                      static_cast<uint32_t>(demoted_count_) &&
           demoted_[server.value] != 0;
  }
  // Sends the attempt in attempts_[slot]; Finish retries it in place or completes it.
  void Send(uint32_t slot);
  void Finish(uint32_t slot, const Reply& reply);

  Simulator* sim_;
  Network* network_;
  ServiceDiscovery* discovery_;
  ServerRegistry* registry_;
  const AppSpec* spec_;
  RegionId client_region_;
  RouterConfig config_;
  Rng rng_;

  // The delivered map: the shared published snapshot until the first delta, then a private
  // copy patched in place (empty before the first delivery).
  ShardMapView view_;
  // Per-version routing cache: rebuilt on snapshot application, patched on delta application.
  std::vector<CachedShard> cache_;
  std::vector<RankedReplica> ranked_;
  // Sorted key-range index over cache_ (empty when the map publishes no ranges).
  std::vector<RangeRow> range_index_;
  // Rows of ranked_ still referenced by cache_ (patching orphans the replaced runs).
  size_t ranked_live_ = 0;
  // RED accounting sink (optional; null detaches). app_slot_/region_index_ are resolved once
  // in SetAccounting so the hot path carries only integer arguments; pick_slot_ caches the
  // accountant's pick-rate counter so a pick costs one pointer increment.
  obs::RequestAccountant* accountant_ = nullptr;
  int stripe_ = 0;
  int app_slot_ = -1;
  int region_index_ = 0;
  uint64_t* pick_slot_ = nullptr;
  // Gray-replica demotion view (optional, borrowed; see SetDemotionView).
  const uint8_t* demoted_ = nullptr;
  int32_t demoted_count_ = 0;

  int64_t subscription_ = 0;
  int64_t requests_sent_ = 0;
  int64_t cache_rebuilds_ = 0;
  int64_t cache_patches_ = 0;
  int64_t cache_compactions_ = 0;

  // Requests in flight (a slot is owned from Route until its outcome is delivered).
  std::vector<Attempt> attempts_;
  std::vector<uint32_t> free_attempts_;
  // Requests routed before the first map arrived; ApplyMap sends them.
  std::vector<uint32_t> parked_;
};

}  // namespace shardman

#endif  // SRC_ROUTING_SERVICE_ROUTER_H_
