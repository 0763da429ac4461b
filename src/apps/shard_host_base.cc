#include "src/apps/shard_host_base.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace shardman {

ShardHostBase::ShardHostBase(Simulator* sim, Network* network, ServerRegistry* registry,
                             ServerId self, RegionId region, int metric_dims)
    : sim_(sim),
      network_(network),
      registry_(registry),
      self_(self),
      region_(region),
      metric_dims_(metric_dims) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(network != nullptr);
  SM_CHECK(registry != nullptr);
}

ShardHostBase::LocalShard* ShardHostBase::FindShard(ShardId shard) {
  auto it = shards_.find(shard.value);
  return it != shards_.end() ? &it->second : nullptr;
}

const ShardHostBase::LocalShard* ShardHostBase::FindShard(ShardId shard) const {
  auto it = shards_.find(shard.value);
  return it != shards_.end() ? &it->second : nullptr;
}

int64_t ShardHostBase::NextEpoch(int64_t previous) const {
  // Ownership epochs must be monotone across servers and across state loss, so they are derived
  // from (virtual) time — the same trick production systems use with coarse timestamp-based
  // leader epochs. The max() guards against multiple acquisitions within one millisecond.
  return std::max(previous + 1, static_cast<int64_t>(ToMillis(sim_->Now())) + 1);
}

Status ShardHostBase::AddShard(ShardId shard, ReplicaRole role) {
  LocalShard* existing = FindShard(shard);
  if (existing != nullptr) {
    // Migration step 3 (prepared replica becomes the official owner) or an idempotent
    // re-assertion of ownership.
    existing->state = LocalShardState::kServing;
    existing->role = role;
    existing->forward_to = ServerId();
    existing->expected_from = ServerId();
    existing->epoch = NextEpoch(existing->epoch);
    return Status::Ok();
  }
  LocalShard state;
  state.state = LocalShardState::kServing;
  state.role = role;
  state.base_load = ResourceVector(metric_dims_);
  state.epoch = NextEpoch(0);
  auto pending = pending_base_loads_.find(shard.value);
  if (pending != pending_base_loads_.end()) {
    state.base_load = pending->second;
  } else if (base_load_fn_) {
    state.base_load = base_load_fn_(shard);
  }
  auto [it, inserted] = shards_.emplace(shard.value, std::move(state));
  OnShardAdded(shard, it->second);
  return Status::Ok();
}

Status ShardHostBase::DropShard(ShardId shard) {
  auto it = shards_.find(shard.value);
  if (it == shards_.end()) {
    return NotFoundError("shard not hosted");
  }
  shards_.erase(it);
  OnShardDropped(shard);
  return Status::Ok();
}

Status ShardHostBase::ChangeRole(ShardId shard, ReplicaRole current, ReplicaRole next) {
  LocalShard* state = FindShard(shard);
  if (state == nullptr) {
    return NotFoundError("shard not hosted");
  }
  if (state->role != current) {
    return FailedPreconditionError("role mismatch");
  }
  state->role = next;
  if (next == ReplicaRole::kPrimary) {
    state->epoch = NextEpoch(state->epoch);
  }
  return Status::Ok();
}

Status ShardHostBase::PrepareAddShard(ShardId shard, ServerId current_owner, ReplicaRole role) {
  LocalShard* existing = FindShard(shard);
  if (existing != nullptr) {
    // Already hosting (e.g. as a secondary being promoted via migration): mark as prepared.
    existing->state = LocalShardState::kPreparingAdd;
    existing->expected_from = current_owner;
    return Status::Ok();
  }
  LocalShard state;
  state.state = LocalShardState::kPreparingAdd;
  state.role = role;
  state.expected_from = current_owner;
  state.base_load = ResourceVector(metric_dims_);
  auto pending = pending_base_loads_.find(shard.value);
  if (pending != pending_base_loads_.end()) {
    state.base_load = pending->second;
  } else if (base_load_fn_) {
    state.base_load = base_load_fn_(shard);
  }
  auto [it, inserted] = shards_.emplace(shard.value, std::move(state));
  OnShardAdded(shard, it->second);
  return Status::Ok();
}

Status ShardHostBase::PrepareDropShard(ShardId shard, ServerId new_owner, ReplicaRole role) {
  LocalShard* state = FindShard(shard);
  if (state == nullptr) {
    return NotFoundError("shard not hosted");
  }
  (void)role;
  state->state = LocalShardState::kForwarding;
  state->forward_to = new_owner;
  return Status::Ok();
}

void ShardHostBase::ReportLoads(ShardLoadReport& report) {
  TimeMicros now = sim_->Now();
  double window_seconds = ToSeconds(now - last_report_);
  if (window_seconds <= 0.0) {
    window_seconds = 1.0;
  }
  last_report_ = now;
  report.entries.resize(shards_.size());
  size_t next = 0;
  for (auto& [shard_value, state] : shards_) {
    ShardLoadEntry& entry = report.entries[next++];
    entry.shard = ShardId(shard_value);
    entry.role = state.role;
    entry.load = state.base_load;
    if (request_rate_cost_ > 0.0 && entry.load.dims() > 0) {
      entry.load[0] += request_rate_cost_ *
                       (static_cast<double>(state.requests_since_report) / window_seconds);
    }
    state.requests_since_report = 0;
  }
}

void ShardHostBase::HandleRequest(const Request& request, ReplyCallback done) {
  LocalShard* state = FindShard(request.shard);
  if (state == nullptr) {
    ++rejected_;
    Reply reply;
    reply.status = FailedPreconditionError("not owner");
    reply.served_by = self_;
    done(reply);
    return;
  }
  switch (state->state) {
    case LocalShardState::kPreparingAdd: {
      // §4.3 step 1: process primary-type requests only if forwarded from the old owner.
      if (!request.forwarded) {
        ++rejected_;
        Reply reply;
        reply.status = FailedPreconditionError("not yet owner");
        reply.served_by = self_;
        done(reply);
        return;
      }
      Serve(request, std::move(done));
      return;
    }
    case LocalShardState::kForwarding: {
      Forward(*state, request, std::move(done));
      return;
    }
    case LocalShardState::kServing: {
      if (request.type == RequestType::kWrite && state->role == ReplicaRole::kSecondary &&
          !allow_writes_on_secondary_) {
        ++rejected_;
        Reply reply;
        reply.status = FailedPreconditionError("write to secondary");
        reply.served_by = self_;
        done(reply);
        return;
      }
      Serve(request, std::move(done));
      return;
    }
  }
}

void ShardHostBase::Serve(const Request& request, ReplyCallback done) {
  TimeMicros delay = processing_delay_;
  if (service_rate_ > 0.0) {
    // Finite-capacity FIFO: this request starts when the server frees up and holds it for one
    // service time. The virtual-clock update is O(1); the waiting itself is just a longer
    // completion delay, so overload shows up as queueing latency, not dropped events.
    const TimeMicros service_time =
        std::max<TimeMicros>(1, static_cast<TimeMicros>(1e6 / service_rate_));
    const TimeMicros now = sim_->Now();
    const TimeMicros start = std::max(now, busy_until_);
    if (queue_limit_ > 0 && start - now > queue_limit_) {
      // Shed instead of queueing work the caller has already given up on — an unbounded
      // FIFO would otherwise poison recovery for minutes after the overload ends.
      ++shed_;
      Reply reply;
      reply.status = ResourceExhaustedError("server overloaded");
      reply.served_by = self_;
      done(reply);
      return;
    }
    busy_until_ = start + service_time;
    delay = std::max(processing_delay_, busy_until_ - now);
  }
  uint32_t slot;
  if (!free_queued_.empty()) {
    slot = free_queued_.back();
    free_queued_.pop_back();
  } else {
    slot = static_cast<uint32_t>(queued_.size());
    queued_.emplace_back();
  }
  queued_[slot] = QueuedRequest{request, std::move(done)};
  sim_->Schedule(delay, [this, slot]() { Complete(slot); });
}

void ShardHostBase::Complete(uint32_t slot) {
  const Request request = queued_[slot].request;
  ReplyCallback done = std::move(queued_[slot].done);
  free_queued_.push_back(slot);
  LocalShard* state = FindShard(request.shard);
  if (state == nullptr) {
    // Dropped while queued (e.g. crash): the request is lost.
    Reply reply;
    reply.status = UnavailableError("shard dropped mid-request");
    reply.served_by = self_;
    done(reply);
    return;
  }
  ++state->requests_since_report;
  ++served_;
  Reply reply = ApplyRequest(*state, request);
  reply.served_by = self_;
  done(reply);
}

void ShardHostBase::Forward(const LocalShard& shard, const Request& request, ReplyCallback done) {
  if (request.hops >= 3 || !shard.forward_to.valid()) {
    ++rejected_;
    Reply reply;
    reply.status = UnavailableError("forwarding chain too long");
    reply.served_by = self_;
    done(reply);
    return;
  }
  ++forwarded_;
  Request forwarded = request;
  forwarded.forwarded = true;
  forwarded.hops = request.hops + 1;
  CallData(*network_, region_, *registry_, shard.forward_to, forwarded, std::move(done));
}

void ShardHostBase::OnCrash() {
  shards_.clear();
  busy_until_ = 0;
  OnCrashExtra();
}

void ShardHostBase::SetShardBaseLoad(ShardId shard, ResourceVector load) {
  pending_base_loads_[shard.value] = load;
  LocalShard* state = FindShard(shard);
  if (state != nullptr) {
    state->base_load = std::move(load);
  }
}

bool ShardHostBase::Hosts(ShardId shard) const { return FindShard(shard) != nullptr; }

bool ShardHostBase::Serving(ShardId shard) const {
  const LocalShard* state = FindShard(shard);
  return state != nullptr && state->state == LocalShardState::kServing;
}

bool ShardHostBase::AcceptsDirectWrites(ShardId shard) const {
  const LocalShard* state = FindShard(shard);
  if (state == nullptr) {
    return false;
  }
  if (state->state != LocalShardState::kServing) {
    return false;
  }
  return state->role == ReplicaRole::kPrimary || allow_writes_on_secondary_;
}

}  // namespace shardman
