// ServiceDiscovery: publishes versioned shard maps to subscribed clients.
//
// The production system fans maps out through a multi-level distribution tree (§3.2); what the
// availability experiments observe is the *client-visible staleness window*, so the simulator
// models dissemination as a per-subscriber propagation delay sampled from a configurable range.
// Each subscriber's channel is FIFO, as a path down a tree is: version v+1 is delivered no
// earlier than v, so a subscriber never receives an older version than it already holds.
//
// Hot-path design (DESIGN.md §9): dissemination is zero-copy. Publish stores one immutable
// ShardMap behind a shared_ptr and hands that same pointer to every subscriber — a map version
// is materialized exactly once no matter how many clients consume it. Subscribers are indexed
// per app, so publishing app A never scans app B's subscribers. Each delivery delay is derived
// by hashing (seed, subscription, version) rather than drawn from a shared RNG stream, so the
// delay a subscriber experiences is independent of fan-out iteration order — publish order can
// never perturb the seeded timing of other subscribers.
//
// Delta dissemination (DESIGN.md §10): every publish after an app's first also materializes one
// immutable ShardMapDelta against the previous version. A delta-capable subscriber receives
// that delta when it chains onto the version the subscriber last received. It receives the
// full snapshot only to heal a real gap — its initial read, a late subscribe, or a delivery
// lost in the tree — mirroring the paper's watch-then-read-snapshot recovery. Snapshot-only
// subscribers (no delta callback) always get snapshots.

#ifndef SRC_DISCOVERY_SERVICE_DISCOVERY_H_
#define SRC_DISCOVERY_SERVICE_DISCOVERY_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/discovery/shard_map.h"
#include "src/sim/simulator.h"

namespace shardman {

class ServiceDiscovery {
 public:
  // Subscribers receive the shared immutable map — store the shared_ptr, never copy the map.
  using MapCallback = std::function<void(const std::shared_ptr<const ShardMap>&)>;
  // Delta subscribers additionally receive shared immutable deltas (the same object for every
  // subscriber of a version, like the map itself).
  using DeltaCallback = std::function<void(const std::shared_ptr<const ShardMapDelta>&)>;
  // Test/chaos hook modelling dissemination-tree loss: return false to drop this delivery
  // (the subscriber simply never hears about that version). Dropped deliveries are counted.
  using DeliveryFilter = std::function<bool(int64_t subscription, int64_t version)>;

  // Propagation delay per subscriber is derived deterministically from (seed, subscription,
  // version), uniform in [min_delay, max_delay]; a delivery waits for the subscriber's previous
  // one when the drawn delay would let it overtake.
  ServiceDiscovery(Simulator* sim, TimeMicros min_delay, TimeMicros max_delay, uint64_t seed);

  // Publishes a new map version for map.app. Versions must be monotonically increasing.
  // The by-value overload materializes the shared map once; prefer moving in the freshly-built
  // map. The shared_ptr overload publishes an already-shared map with no copy at all.
  void Publish(const ShardMap& map) { Publish(std::make_shared<const ShardMap>(map)); }
  void Publish(ShardMap&& map) { Publish(std::make_shared<const ShardMap>(std::move(map))); }
  void Publish(std::shared_ptr<const ShardMap> map);

  // Subscribes to an app's map. If a map already exists it is delivered after a propagation
  // delay. With a `delta_cb`, a version whose delta chains onto the subscriber's last received
  // version arrives as that delta and `snapshot_cb` fires only for the initial read and gap
  // recovery; without one every version arrives as a snapshot. Returns a subscription id for
  // Unsubscribe.
  int64_t Subscribe(AppId app, MapCallback snapshot_cb, DeltaCallback delta_cb = nullptr);
  void Unsubscribe(int64_t subscription);

  // Installs (or clears, with nullptr) the delivery-loss hook. SetDeliveryLoss is the common
  // case: drop each delivery independently with `probability`, seeded deterministically;
  // probability 0 clears the hook.
  void SetDeliveryFilter(DeliveryFilter filter);
  void SetDeliveryLoss(double probability, uint64_t seed);

  // The authoritative (most recently published) map, or nullptr. Control-plane components use
  // this; clients must go through Subscribe to experience propagation delay.
  const ShardMap* Current(AppId app) const;
  // Shared handle to the authoritative map (zero-copy access for co-located components).
  std::shared_ptr<const ShardMap> CurrentShared(AppId app) const;

  int64_t publishes() const { return publishes_; }
  // Dissemination accounting (mirrored into sm.discovery.* counters): entries shipped via
  // deltas vs full snapshots, delta deliveries, gap-driven snapshot fallbacks, and deliveries
  // dropped by the loss hook. Benchmarks and exact-count tests read these directly.
  int64_t delta_entries_shipped() const { return delta_entries_shipped_; }
  int64_t snapshot_entries_shipped() const { return snapshot_entries_shipped_; }
  int64_t delta_deliveries() const { return delta_deliveries_; }
  int64_t snapshot_fallbacks() const { return snapshot_fallbacks_; }
  int64_t dropped_deliveries() const { return dropped_deliveries_; }

 private:
  // One publish, shared by every scheduled delivery of that version (a single allocation per
  // publish keeps the per-subscriber closure inside SmallFunction's inline storage).
  struct PublishRecord {
    std::shared_ptr<const ShardMap> map;
    // Delta from the previous published version, or nullptr for the app's first publish.
    std::shared_ptr<const ShardMapDelta> delta;
    TimeMicros published_at = 0;  // feeds the delivery staleness histogram
  };
  struct Subscriber {
    AppId app;
    MapCallback cb;
    DeltaCallback delta_cb;  // null for snapshot-only subscribers
    int64_t delivered_version = -1;
    // Latest delivery time scheduled on this channel; later versions never arrive before it.
    TimeMicros last_delivery_at = 0;
  };
  struct AppState {
    std::shared_ptr<const PublishRecord> last_publish;
    // First version this discovery instance published for the app: a snapshot of it delivered
    // to a fresh subscriber is the normal initial read, not a gap fallback.
    int64_t first_published_version = -1;
    std::vector<int64_t> subscriptions;  // insertion order (stable for same-instant delivery)
  };

  TimeMicros DeliveryDelay(int64_t subscription, int64_t version) const;
  // Schedules `record` down the subscriber's FIFO channel.
  void ScheduleDelivery(int64_t subscription, Subscriber& sub,
                        std::shared_ptr<const PublishRecord> record);
  void Deliver(int64_t subscription, const std::shared_ptr<const PublishRecord>& record);

  Simulator* sim_;
  TimeMicros min_delay_;
  TimeMicros max_delay_;
  uint64_t seed_;
  std::unordered_map<int32_t, AppState> apps_;
  std::unordered_map<int64_t, Subscriber> subscribers_;
  DeliveryFilter delivery_filter_;
  int64_t next_subscription_ = 1;
  int64_t publishes_ = 0;
  int64_t delta_entries_shipped_ = 0;
  int64_t snapshot_entries_shipped_ = 0;
  int64_t delta_deliveries_ = 0;
  int64_t snapshot_fallbacks_ = 0;
  int64_t dropped_deliveries_ = 0;
};

}  // namespace shardman

#endif  // SRC_DISCOVERY_SERVICE_DISCOVERY_H_
