#include "src/discovery/service_discovery.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/obs.h"

namespace shardman {

namespace {
// splitmix64 finalizer: a high-quality 64-bit mixer.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

ServiceDiscovery::ServiceDiscovery(Simulator* sim, TimeMicros min_delay, TimeMicros max_delay,
                                   uint64_t seed)
    : sim_(sim), min_delay_(min_delay), max_delay_(max_delay), seed_(seed) {
  SM_CHECK(sim != nullptr);
  SM_CHECK_LE(min_delay, max_delay);
}

TimeMicros ServiceDiscovery::DeliveryDelay(int64_t subscription, int64_t version) const {
  if (max_delay_ == min_delay_) {
    return min_delay_;
  }
  // Pure function of (seed, subscription, version): the delay a subscriber experiences for a
  // version does not depend on how many other subscribers exist or the order they are served.
  uint64_t h = Mix64(seed_ ^ Mix64(static_cast<uint64_t>(subscription)) ^
                     Mix64(static_cast<uint64_t>(version) * 0xD1B54A32D192ED03ULL));
  uint64_t span = static_cast<uint64_t>(max_delay_ - min_delay_) + 1;
  return min_delay_ + static_cast<TimeMicros>(h % span);
}

void ServiceDiscovery::ScheduleDelivery(int64_t subscription, Subscriber& sub,
                                        std::shared_ptr<const PublishRecord> record) {
  // FIFO channel: never before the previous delivery. Equal times keep scheduling order
  // because the simulator breaks ties by sequence number.
  sub.last_delivery_at = std::max(sim_->Now() + DeliveryDelay(subscription, record->map->version),
                                  sub.last_delivery_at);
  sim_->ScheduleAt(sub.last_delivery_at, [this, subscription, record = std::move(record)]() {
    Deliver(subscription, record);
  });
}

void ServiceDiscovery::SetDeliveryFilter(DeliveryFilter filter) {
  delivery_filter_ = std::move(filter);
}

void ServiceDiscovery::SetDeliveryLoss(double probability, uint64_t seed) {
  if (probability <= 0.0) {
    delivery_filter_ = nullptr;
    return;
  }
  SM_CHECK_LE(probability, 1.0);
  // The Rng rides inside the filter; delivery events execute in deterministic sim order, so
  // the drop pattern is a pure function of (seed, delivery sequence).
  auto rng = std::make_shared<Rng>(seed);
  delivery_filter_ = [rng, probability](int64_t, int64_t) {
    return rng->Uniform(0.0, 1.0) >= probability;
  };
}

void ServiceDiscovery::Publish(std::shared_ptr<const ShardMap> map) {
  SM_CHECK(map != nullptr);
  AppState& app = apps_[map->app.value];
  const std::shared_ptr<const ShardMap> previous =
      app.last_publish != nullptr ? app.last_publish->map : nullptr;
  auto record = std::make_shared<PublishRecord>();
  record->published_at = sim_->Now();
  if (previous != nullptr) {
    SM_CHECK_GT(map->version, previous->version);
    // One immutable delta per publish, shared by every delta-capable subscriber — the delta
    // analogue of the zero-copy snapshot.
    record->delta = std::make_shared<const ShardMapDelta>(DiffShardMaps(*previous, *map));
  } else {
    app.first_published_version = map->version;
  }
  record->map = std::move(map);
  app.last_publish = record;
  const std::shared_ptr<const PublishRecord>& shared = app.last_publish;
  ++publishes_;
  SM_COUNTER_INC("sm.discovery.publishes");
  SM_TRACE_INSTANT("discovery", "publish",
                   obs::Arg("app", static_cast<int64_t>(shared->map->app.value)) + "," +
                       obs::Arg("version", shared->map->version));
  SM_FLIGHT("discovery", "publish",
            "app=" + std::to_string(shared->map->app.value) +
                " version=" + std::to_string(shared->map->version) +
                (shared->delta != nullptr ? " delta" : " snapshot"));
  // Only this app's subscribers are scanned; each delivery shares the one immutable record.
  for (int64_t subscription : app.subscriptions) {
    ScheduleDelivery(subscription, subscribers_.at(subscription), shared);
  }
}

void ServiceDiscovery::Deliver(int64_t subscription,
                               const std::shared_ptr<const PublishRecord>& record) {
  auto it = subscribers_.find(subscription);
  if (it == subscribers_.end()) {
    return;
  }
  Subscriber& sub = it->second;
  const ShardMap& map = *record->map;
  if (delivery_filter_ != nullptr && !delivery_filter_(subscription, map.version)) {
    ++dropped_deliveries_;
    SM_COUNTER_INC("sm.discovery.dropped_deliveries");
    return;  // Lost in the dissemination tree; a later version (or fallback) must heal this.
  }
  SM_CHECK_GT(map.version, sub.delivered_version);  // the channel is FIFO
  SM_COUNTER_INC("sm.discovery.deliveries");
  SM_HISTOGRAM_OBSERVE("sm.discovery.staleness_ms", ToMillis(sim_->Now() - record->published_at));
  if (sub.delta_cb != nullptr && record->delta != nullptr &&
      record->delta->from_version == sub.delivered_version) {
    // The delta chains onto exactly what this subscriber holds: ship changed rows only.
    sub.delivered_version = map.version;
    ++delta_deliveries_;
    delta_entries_shipped_ += static_cast<int64_t>(record->delta->changed.size());
    SM_COUNTER_INC("sm.discovery.delta_deliveries");
    SM_COUNTER_ADD("sm.discovery.delta_entries",
                   static_cast<int64_t>(record->delta->changed.size()));
    sub.delta_cb(record->delta);
    return;
  }
  // Full snapshot: the only path for snapshot-only subscribers, and the gap-recovery path for
  // delta subscribers (late subscribe or a dropped delivery left delivered_version behind the
  // delta's base). The initial read of the app's first-ever version is not a gap.
  const bool gap_fallback =
      sub.delta_cb != nullptr &&
      !(sub.delivered_version < 0 &&
        map.version == apps_.at(sub.app.value).first_published_version);
  sub.delivered_version = map.version;
  snapshot_entries_shipped_ += static_cast<int64_t>(map.entries.size());
  if (gap_fallback) {
    ++snapshot_fallbacks_;
    SM_COUNTER_INC("sm.discovery.snapshot_fallbacks");
    SM_TRACE_INSTANT("discovery", "snapshot_fallback",
                     obs::Arg("subscription", subscription) + "," +
                         obs::Arg("version", map.version));
    SM_FLIGHT("discovery", "snapshot_fallback",
              "subscription=" + std::to_string(subscription) +
                  " version=" + std::to_string(map.version));
  }
  sub.cb(record->map);
}

int64_t ServiceDiscovery::Subscribe(AppId app, MapCallback snapshot_cb, DeltaCallback delta_cb) {
  SM_CHECK(snapshot_cb != nullptr);
  int64_t id = next_subscription_++;
  Subscriber& sub = subscribers_[id];
  sub = Subscriber{app, std::move(snapshot_cb), std::move(delta_cb)};
  AppState& state = apps_[app.value];
  state.subscriptions.push_back(id);
  if (state.last_publish != nullptr) {
    ScheduleDelivery(id, sub, state.last_publish);
  }
  return id;
}

void ServiceDiscovery::Unsubscribe(int64_t subscription) {
  auto it = subscribers_.find(subscription);
  if (it == subscribers_.end()) {
    return;
  }
  auto app_it = apps_.find(it->second.app.value);
  if (app_it != apps_.end()) {
    auto& subs = app_it->second.subscriptions;
    subs.erase(std::remove(subs.begin(), subs.end(), subscription), subs.end());
  }
  subscribers_.erase(it);
}

const ShardMap* ServiceDiscovery::Current(AppId app) const {
  auto it = apps_.find(app.value);
  return it != apps_.end() && it->second.last_publish != nullptr
             ? it->second.last_publish->map.get()
             : nullptr;
}

std::shared_ptr<const ShardMap> ServiceDiscovery::CurrentShared(AppId app) const {
  auto it = apps_.find(app.value);
  return it != apps_.end() && it->second.last_publish != nullptr ? it->second.last_publish->map
                                                                 : nullptr;
}

}  // namespace shardman
