#include "src/routing/service_router.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace shardman {

ServiceRouter::ServiceRouter(Simulator* sim, Network* network, ServiceDiscovery* discovery,
                             ServerRegistry* registry, const AppSpec* spec,
                             RegionId client_region, RouterConfig config, uint64_t seed)
    : sim_(sim),
      network_(network),
      discovery_(discovery),
      registry_(registry),
      spec_(spec),
      client_region_(client_region),
      config_(config),
      rng_(seed) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(network != nullptr);
  SM_CHECK(discovery != nullptr);
  SM_CHECK(registry != nullptr);
  SM_CHECK(spec != nullptr);
  subscription_ = discovery_->Subscribe(
      spec_->id, [this](const std::shared_ptr<const ShardMap>& map) { ApplyMap(map); },
      [this](const std::shared_ptr<const ShardMapDelta>& delta) { ApplyDelta(delta); });
}

ServiceRouter::~ServiceRouter() { discovery_->Unsubscribe(subscription_); }

void ServiceRouter::ApplyMap(const std::shared_ptr<const ShardMap>& map) {
  // First client-visible point of a lifecycle chain: the routing table now reflects the
  // published version.
  SM_COUNTER_INC("sm.router.maps_applied");
  SM_TRACE_INSTANT("router", "map_applied", obs::Arg("version", map->version));
  view_.Reset(map);
  RebuildCache();
  // Requests routed before the first map waited for it; resolve and send them now.
  std::vector<uint32_t> parked;
  parked.swap(parked_);
  for (uint32_t slot : parked) {
    attempts_[slot].request.shard = ResolveShard(attempts_[slot].request.key);
    Send(slot);
  }
}

void ServiceRouter::ApplyDelta(const std::shared_ptr<const ShardMapDelta>& delta) {
  view_.Apply(*delta);
  SM_COUNTER_INC("sm.router.maps_applied");
  SM_TRACE_INSTANT("router", "delta_applied", obs::Arg("version", delta->to_version));
  PatchCache(*delta);
}

void ServiceRouter::RankShard(const ShardMapEntry& entry, CachedShard* cached) {
  cached->primary = ServerId();
  cached->range = entry.range;
  cached->replica_begin = static_cast<uint32_t>(ranked_.size());
  for (const ShardMapReplica& replica : entry.replicas) {
    if (replica.role == ReplicaRole::kPrimary) {
      cached->primary = replica.server;
    }
    ranked_.push_back(RankedReplica{
        replica.server, network_->ExpectedLatency(client_region_, replica.region)});
  }
  cached->replica_count = static_cast<uint16_t>(ranked_.size() - cached->replica_begin);
  // Rank by expected latency; stable sort keeps map order within a latency tier so the
  // ranking itself is deterministic (load spreading happens per request, not here). A patched
  // run ranks exactly like the same shard inside a full rebuild — the equivalence invariant.
  auto begin = ranked_.begin() + cached->replica_begin;
  std::stable_sort(begin, ranked_.end(), [](const RankedReplica& a, const RankedReplica& b) {
    return a.latency < b.latency;
  });
  uint16_t tier = 0;
  while (tier < cached->replica_count && begin[tier].latency == begin->latency) {
    ++tier;
  }
  cached->first_tier = tier;
}

void ServiceRouter::RebuildCache() {
  ++cache_rebuilds_;
  SM_COUNTER_INC("sm.router.cache_rebuilds");
  cache_.clear();
  ranked_.clear();
  cache_.reserve(view_.map()->entries.size());
  for (const ShardMapEntry& entry : view_.map()->entries) {
    CachedShard cached;
    RankShard(entry, &cached);
    cache_.push_back(cached);
  }
  ranked_live_ = ranked_.size();
  RebuildRangeIndex();
}

void ServiceRouter::PatchCache(const ShardMapDelta& delta) {
  ++cache_patches_;
  SM_COUNTER_INC("sm.router.cache_patches");
  const size_t total = static_cast<size_t>(delta.total_shards);
  bool boundaries_moved = false;
  if (total < cache_.size()) {
    for (size_t i = total; i < cache_.size(); ++i) {
      ranked_live_ -= cache_[i].replica_count;
      boundaries_moved = boundaries_moved || !cache_[i].range.empty();
    }
  }
  // Grown rows start empty; every index past the old map's end is in `changed` and filled next.
  cache_.resize(total);
  for (const ShardMapEntry& entry : delta.changed) {
    CachedShard& cached = cache_[static_cast<size_t>(entry.shard.value)];
    ranked_live_ -= cached.replica_count;
    boundaries_moved = boundaries_moved || cached.range != entry.range;
    RankShard(entry, &cached);
    ranked_live_ += cached.replica_count;
  }
  if (boundaries_moved) {
    // A split/merge commit moved key ownership; re-derive the sorted index. Load moves and
    // failovers never take this path, keeping steady-state patches O(changed).
    RebuildRangeIndex();
  }
  // Patched runs append to ranked_, orphaning the rows they replace. Compact once dead rows
  // dominate — O(live) occasionally, amortized O(changed) per publish.
  if (ranked_.size() > 2 * ranked_live_ + 64) {
    CompactRanked();
  }
}

void ServiceRouter::CompactRanked() {
  ++cache_compactions_;
  SM_COUNTER_INC("sm.router.cache_compactions");
  std::vector<RankedReplica> packed;
  packed.reserve(ranked_live_);
  for (CachedShard& cached : cache_) {
    const uint32_t begin = cached.replica_begin;
    cached.replica_begin = static_cast<uint32_t>(packed.size());
    for (uint16_t i = 0; i < cached.replica_count; ++i) {
      packed.push_back(ranked_[begin + i]);
    }
  }
  ranked_ = std::move(packed);
  ranked_live_ = ranked_.size();
}

void ServiceRouter::RebuildRangeIndex() {
  range_index_.clear();
  for (size_t s = 0; s < cache_.size(); ++s) {
    if (cache_[s].range.empty()) {
      continue;  // retired shards and uncommitted split children own no keys
    }
    RangeRow row;
    row.begin = cache_[s].range.begin;
    row.end = cache_[s].range.end;
    row.shard = ShardId(static_cast<int32_t>(s));
    range_index_.push_back(row);
  }
  std::sort(range_index_.begin(), range_index_.end(),
            [](const RangeRow& a, const RangeRow& b) { return a.begin < b.begin; });
}

ShardId ServiceRouter::ResolveShard(uint64_t key) const {
  if (range_index_.empty()) {
    return spec_->ShardForKey(key);
  }
  // Last row with begin <= key, then a containment check (ranges never overlap — the
  // orchestrator publishes each boundary move as one atomic version).
  auto it = std::upper_bound(range_index_.begin(), range_index_.end(), key,
                             [](uint64_t k, const RangeRow& row) { return k < row.begin; });
  if (it == range_index_.begin()) {
    return ShardId();
  }
  --it;
  return key < it->end ? it->shard : ShardId();
}

void ServiceRouter::SetAccounting(obs::RequestAccountant* accountant, int stripe) {
  accountant_ = accountant;
  stripe_ = stripe;
  app_slot_ = accountant != nullptr ? accountant->RegisterApp(spec_->id) : -1;
  region_index_ = client_region_.valid() ? client_region_.value : 0;
  // Resolve the pick-rate slot once; PickTarget then pays a single increment per pick.
  pick_slot_ = accountant != nullptr ? accountant->PickSlot(stripe_, app_slot_, region_index_)
                                     : nullptr;
}

void ServiceRouter::SetDemotionView(const uint8_t* flags, int32_t count) {
  demoted_ = flags;
  demoted_count_ = flags != nullptr ? count : 0;
}

ServerId ServiceRouter::PickTarget(const Request& request, int attempt, ServerId exclude) {
  // Counts pick *attempts* (before selection), so the increment never waits on the selection
  // result — the whole accounting cost disappears into the out-of-order window.
  if (pick_slot_ != nullptr) ++*pick_slot_;
  return SelectTarget(request, attempt, exclude);
}

ServerId ServiceRouter::SelectTarget(const Request& request, int attempt, ServerId exclude) {
  if (view_.map() == nullptr || !request.shard.valid() ||
      static_cast<size_t>(request.shard.value) >= cache_.size()) {
    return ServerId();
  }
  const CachedShard& cached = cache_[static_cast<size_t>(request.shard.value)];
  if (cached.replica_count == 0) {
    return ServerId();
  }
  const bool writes_anywhere = spec_->strategy == ReplicationStrategy::kSecondaryOnly;
  if (request.type == RequestType::kWrite && !writes_anywhere) {
    // Writes must reach the primary; there is no alternative to fail over to. Deliberately
    // returned even when it equals `exclude`: during graceful migration the old primary
    // forwards, so retrying it beats giving up.
    return cached.primary;
  }
  // Reads/scans (and secondary-only writes): walk the latency-ranked replicas, skipping the
  // server that failed the previous attempt when an alternative exists; later attempts walk
  // down the preference list. One seeded draw rotates the start within the equidistant first
  // tier to spread load across it — no per-request sort or allocation.
  const RankedReplica* ranked = ranked_.data() + cached.replica_begin;
  const int count = cached.replica_count;
  int avail = count;
  if (count > 1 && exclude.valid()) {
    for (int i = 0; i < count; ++i) {
      if (ranked[i].server == exclude) {
        --avail;
        break;
      }
    }
  }
  if (avail == 0) {
    return exclude;  // everything filtered: retry the excluded server rather than nothing
  }
  // Exactly one rotation draw per pick, demotion or not — the determinism contract: with no
  // demoted replica the pick stream is bit-identical to a router with no demotion view.
  const int rotation =
      cached.first_tier > 1 ? rng_.UniformInt(0, cached.first_tier - 1) : 0;
  if (demoted_ != nullptr) {
    // Gray-replica demotion (DESIGN.md §12): count the healthy (non-excluded, non-demoted)
    // candidates. When some but not all candidates are demoted, walk the same rotated
    // preference order skipping them; when all are demoted, fall through to the normal walk —
    // a fully gray shard still gets served.
    int healthy = 0;
    for (int i = 0; i < count; ++i) {
      const ServerId server = ranked[i].server;
      if (count > 1 && server == exclude) continue;
      if (!IsDemoted(server)) ++healthy;
    }
    if (healthy > 0 && healthy < avail) {
      int remaining = std::min(attempt - 1, healthy - 1);
      for (int i = 0; i < count; ++i) {
        const int pos = i < cached.first_tier ? (i + rotation) % cached.first_tier : i;
        const ServerId candidate = ranked[pos].server;
        if (count > 1 && candidate == exclude) continue;
        if (IsDemoted(candidate)) continue;
        if (remaining == 0) {
          return candidate;
        }
        --remaining;
      }
    }
  }
  int remaining = std::min(attempt - 1, avail - 1);
  for (int i = 0; i < count; ++i) {
    const int pos = i < cached.first_tier ? (i + rotation) % cached.first_tier : i;
    const ServerId candidate = ranked[pos].server;
    if (count > 1 && candidate == exclude) {
      continue;
    }
    if (remaining == 0) {
      return candidate;
    }
    --remaining;
  }
  return exclude;
}

void ServiceRouter::Route(uint64_t key, RequestType type,
                          std::function<void(const RequestOutcome&)> done) {
  Route(key, type, 0, std::move(done));
}

void ServiceRouter::Route(uint64_t key, RequestType type, uint64_t payload,
                          std::function<void(const RequestOutcome&)> done) {
  uint32_t slot;
  if (!free_attempts_.empty()) {
    slot = free_attempts_.back();
    free_attempts_.pop_back();
  } else {
    slot = static_cast<uint32_t>(attempts_.size());
    attempts_.emplace_back();
  }
  Attempt& attempt = attempts_[slot];
  attempt = Attempt{};
  attempt.request.app = spec_->id;
  attempt.request.key = key;
  attempt.request.shard = ResolveShard(key);
  attempt.request.type = type;
  attempt.request.payload = payload;
  attempt.request.client_region = client_region_;
  attempt.request.sent_at = sim_->Now();
  attempt.started_at = sim_->Now();
  attempt.done = std::move(done);
  Send(slot);
}

void ServiceRouter::Send(uint32_t slot) {
  if (view_.map() == nullptr) {
    parked_.push_back(slot);
    return;
  }
  Attempt& attempt = attempts_[slot];
  ServerId target = PickTarget(attempt.request, attempt.attempt, attempt.exclude);
  if (!target.valid()) {
    Reply reply;
    reply.status = UnavailableError("no routable replica");
    Finish(slot, reply);
    return;
  }
  attempt.target = target;
  attempt.sent_at = sim_->Now();
  ++requests_sent_;
  CallData(*network_, client_region_, *registry_, target, attempt.request,
           [this, slot](const Reply& reply) { Finish(slot, reply); }, config_.request_timeout);
}

void ServiceRouter::Finish(uint32_t slot, const Reply& reply) {
  Attempt& attempt = attempts_[slot];
  // Per-attempt RED accounting: the replica/link signal the gray-failure scorer consumes. It
  // is a decision input, not telemetry. Timeouts carry no failure detail from the server, so
  // classify by elapsed time — an attempt that consumed the full timeout budget is a timeout
  // whatever the status text says.
  if (accountant_ != nullptr && attempt.target.valid()) {
    const TimeMicros attempt_latency = sim_->Now() - attempt.sent_at;
    obs::AttemptOutcome attempt_outcome = obs::AttemptOutcome::kOk;
    if (!reply.status.ok()) {
      attempt_outcome = attempt_latency >= config_.request_timeout
                            ? obs::AttemptOutcome::kTimeout
                            : obs::AttemptOutcome::kError;
    }
    int to_region = region_index_;
    if (const ServerHandle* handle = registry_->Get(attempt.target)) {
      to_region = handle->region.value;
    }
    accountant_->RecordAttempt(stripe_, attempt.target.value, region_index_, to_region,
                               attempt_latency, attempt_outcome);
  }
  if (!reply.status.ok() && attempt.attempt < config_.max_attempts) {
    ++attempt.attempt;
    // Avoid the server that just failed. A timed-out attempt carries no served_by, so fall
    // back to the server we actually sent to — otherwise the retry could re-pick it while
    // still consuming an attempt slot.
    attempt.exclude = reply.served_by.valid() ? reply.served_by : attempt.target;
    SM_COUNTER_INC("sm.router.retries");
    sim_->Schedule(config_.retry_backoff, [this, slot]() { Send(slot); });
    return;
  }
  RequestOutcome outcome;
  outcome.success = reply.status.ok();
  outcome.status = reply.status;
  outcome.latency = sim_->Now() - attempt.started_at;
  outcome.attempts = attempt.attempt;
  outcome.served_by = reply.served_by;
  if (outcome.success) {
    SM_COUNTER_INC("sm.router.requests_ok");
    SM_HISTOGRAM_OBSERVE("sm.router.request_latency_ms", ToMillis(outcome.latency));
  } else {
    SM_COUNTER_INC("sm.router.requests_failed");
  }
  if (accountant_ != nullptr && attempt.request.shard.valid()) {
    // The split planner's per-shard demand signal.
    accountant_->RecordRequestDone(stripe_, app_slot_, region_index_,
                                   static_cast<int64_t>(attempt.request.shard.value),
                                   outcome.latency, outcome.success);
  }
  // Free the slot before running `done`: it may route again and reuse it.
  std::function<void(const RequestOutcome&)> done = std::move(attempt.done);
  free_attempts_.push_back(slot);
  done(outcome);
}

}  // namespace shardman
