#include "src/core/server_registry.h"

#include <memory>
#include <utility>

#include "src/common/check.h"

namespace shardman {

void ServerRegistry::Register(ServerHandle handle) {
  SM_CHECK(handle.id.valid());
  SM_CHECK_EQ(servers_.count(handle.id.value), 0u);
  by_container_[handle.container.value] = handle.id;
  servers_.emplace(handle.id.value, std::move(handle));
  servers_of_.clear();
}

ServerHandle* ServerRegistry::Get(ServerId id) {
  auto it = servers_.find(id.value);
  return it != servers_.end() ? &it->second : nullptr;
}

const ServerHandle* ServerRegistry::Get(ServerId id) const {
  auto it = servers_.find(id.value);
  return it != servers_.end() ? &it->second : nullptr;
}

ServerHandle* ServerRegistry::GetByContainer(ContainerId container) {
  auto it = by_container_.find(container.value);
  if (it == by_container_.end()) {
    return nullptr;
  }
  return Get(it->second);
}

void ServerRegistry::SetAlive(ServerId id, bool alive) {
  ServerHandle* handle = Get(id);
  if (handle != nullptr) {
    handle->alive = alive;
  }
}

bool ServerRegistry::IsAlive(ServerId id) const {
  const ServerHandle* handle = Get(id);
  return handle != nullptr && handle->alive;
}

const std::vector<ServerId>& ServerRegistry::ServersOf(AppId app) const {
  auto [it, missing] = servers_of_.try_emplace(app.value);
  if (missing) {
    for (const auto& [id, handle] : servers_) {
      if (handle.app == app) {
        it->second.push_back(handle.id);
      }
    }
  }
  return it->second;
}

// The caller-side state of every RPC in flight against one registry. One pooled record per
// call holds the caller's callback, the armed timeout, a resolved flag and what the request
// hop needs. Closures on the wire carry only a 16-byte, trivially copyable Handle, which
// std::function and SmallFunction store inline; a handle whose generation no longer matches
// its slot is stale and every use of it is a no-op.
//
// A record lives until the call is resolved AND every copy of its request has been delivered
// (Network::Send reports how many copies it scheduled), because the server still executes a
// request that arrives after the caller timed out.
class RpcCalls {
 public:
  struct Handle {
    RpcCalls* calls;
    uint32_t slot;
    uint32_t generation;
  };

  explicit RpcCalls(ServerRegistry* registry) : registry_(registry) {}

  Handle Open(Network& network, RegionId caller_region, ServerId target, TimeMicros timeout);
  // Sends the request hop; `deliver` runs on arrival (twice if the network duplicates it).
  void Launch(Handle h, SmallFunction deliver);
  void DeliverData(Handle h);
  void DeliverControl(Handle h);
  void ResolveData(Handle h, const Reply& reply);
  void ResolveControl(Handle h, const Status& status);
  size_t in_flight() const { return calls_.size() - free_.size(); }

  struct Call {
    uint32_t generation = 0;
    bool resolved = true;
    int deliveries = 0;  // request copies still on the wire
    EventId timeout;
    Network* network = nullptr;
    RegionId caller_region;
    RegionId server_region;
    ServerId target;
    Request request;                               // CallData
    ReplyCallback on_reply;                        // CallData
    std::function<Status(ShardServerApi&)> fn;    // CallControl
    std::function<void(const Status&)> on_status;  // CallControl
  };
  Call& at(Handle h) { return calls_[h.slot]; }

 private:
  // Where a delivered request's reply goes, copied out of its record.
  struct Hop {
    ShardServerApi* server = nullptr;  // null: the target is gone or dead, so no response
    Network* network = nullptr;
    RegionId server_region;
    RegionId caller_region;
  };

  void CheckEngine() const { SM_CHECK(engine_->IsCallerEngine()); }
  // Counts one copy of `h`'s request as delivered and returns its record (always live while a
  // copy is on the wire: see class comment).
  Call& Delivering(Handle h);
  // Copies the reply route out of the record, recycles it if nothing else needs it, and looks
  // up the target. Copy whatever else the server hop needs before calling this.
  Hop Delivered(uint32_t slot);
  // The unresolved record behind `h`, or null for a late, duplicated or stale resolution.
  Call* Unresolved(Handle h);
  void TimedOut(Handle h);
  // Marks the call resolved and cancels its timeout (a no-op when the timeout is what fired).
  void Resolve(uint32_t slot);
  void ReleaseIfDone(uint32_t slot);

  ServerRegistry* registry_;
  // The one engine every record belongs to: bound by the first call.
  Simulator* engine_ = nullptr;
  std::vector<Call> calls_;
  std::vector<uint32_t> free_;
};

ServerRegistry::ServerRegistry() : rpc_calls_(std::make_unique<RpcCalls>(this)) {}

ServerRegistry::~ServerRegistry() = default;

size_t ServerRegistry::RpcCallsInFlight() const { return rpc_calls_->in_flight(); }

RpcCalls::Handle RpcCalls::Open(Network& network, RegionId caller_region, ServerId target,
                                TimeMicros timeout) {
  if (engine_ == nullptr) {
    engine_ = network.sim();
  }
  // Records live on the caller's engine. Every caller runs on one engine today (the testbed's
  // shard 0); a caller moved onto another sim shard would race on this table, so fail loudly.
  SM_CHECK(network.sim() == engine_);
  CheckEngine();
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(calls_.size());
    calls_.emplace_back();
  }
  Call& call = calls_[slot];
  const Handle h{this, slot, call.generation};
  call.resolved = false;
  call.network = &network;
  call.caller_region = caller_region;
  call.target = target;
  call.timeout = engine_->Schedule(timeout, [h]() { h.calls->TimedOut(h); });
  return h;
}

void RpcCalls::Launch(Handle h, SmallFunction deliver) {
  Call& call = at(h);
  const ServerHandle* server = registry_->Get(call.target);
  if (server == nullptr) {
    return;  // resolved by the timeout
  }
  call.server_region = server->region;
  call.deliveries = call.network->Send(call.caller_region, call.server_region, std::move(deliver));
}

RpcCalls::Call& RpcCalls::Delivering(Handle h) {
  CheckEngine();
  Call& call = calls_[h.slot];
  SM_CHECK_EQ(call.generation, h.generation);
  SM_CHECK_GT(call.deliveries, 0);
  --call.deliveries;
  return call;
}

RpcCalls::Hop RpcCalls::Delivered(uint32_t slot) {
  const Call& call = calls_[slot];
  Hop hop;
  hop.network = call.network;
  hop.server_region = call.server_region;
  hop.caller_region = call.caller_region;
  const ServerId target = call.target;
  ReleaseIfDone(slot);
  ServerHandle* server = registry_->Get(target);
  if (server != nullptr && server->alive) {
    hop.server = server->api;
  }
  return hop;
}

void RpcCalls::DeliverData(Handle h) {
  // Copied first: HandleRequest may open new calls (forwarding), which can grow calls_.
  const Request request = Delivering(h).request;
  const Hop hop = Delivered(h.slot);
  if (hop.server == nullptr) {
    return;  // no response; the caller's timeout fires
  }
  hop.server->HandleRequest(request, [network = hop.network, from = hop.server_region,
                                      to = hop.caller_region, h](const Reply& reply) {
    if (reply.status == Status()) {
      // The common case, an OK reply without status text, ships only its two other fields.
      network->Send(from, to, [h, served_by = reply.served_by, value = reply.value]() {
        Reply ok;
        ok.served_by = served_by;
        ok.value = value;
        h.calls->ResolveData(h, ok);
      });
    } else {
      network->Send(from, to, [h, reply]() { h.calls->ResolveData(h, reply); });
    }
  });
}

void RpcCalls::DeliverControl(Handle h) {
  Call& call = Delivering(h);
  // A duplicated request runs `fn` twice, so only the last delivery may take it.
  std::function<Status(ShardServerApi&)> fn =
      call.deliveries > 0 ? call.fn : std::move(call.fn);
  const Hop hop = Delivered(h.slot);
  if (hop.server == nullptr) {
    return;  // no response; the caller's timeout fires
  }
  const Status status = fn(*hop.server);
  if (status == Status()) {
    hop.network->Send(hop.server_region, hop.caller_region,
                      [h]() { h.calls->ResolveControl(h, Status()); });
  } else {
    hop.network->Send(hop.server_region, hop.caller_region,
                      [h, status]() { h.calls->ResolveControl(h, status); });
  }
}

RpcCalls::Call* RpcCalls::Unresolved(Handle h) {
  CheckEngine();
  Call& call = calls_[h.slot];
  if (call.generation != h.generation || call.resolved) {
    return nullptr;
  }
  return &call;
}

void RpcCalls::ResolveData(Handle h, const Reply& reply) {
  Call* call = Unresolved(h);
  if (call == nullptr) {
    return;  // the timeout or an earlier copy of the reply won
  }
  ReplyCallback done = std::move(call->on_reply);
  Resolve(h.slot);
  done(reply);
}

void RpcCalls::ResolveControl(Handle h, const Status& status) {
  Call* call = Unresolved(h);
  if (call == nullptr) {
    return;  // the timeout or an earlier copy of the reply won
  }
  std::function<void(const Status&)> done = std::move(call->on_status);
  Resolve(h.slot);
  done(status);
}

void RpcCalls::TimedOut(Handle h) {
  Call* call = Unresolved(h);
  SM_CHECK(call != nullptr);  // a resolved call has already cancelled its timeout
  if (call->on_reply) {
    Reply reply;
    reply.status = UnavailableError("rpc timeout");
    reply.served_by = call->target;
    ResolveData(h, reply);
  } else {
    ResolveControl(h, UnavailableError("rpc timeout"));
  }
}

void RpcCalls::Resolve(uint32_t slot) {
  Call& call = calls_[slot];
  call.resolved = true;
  engine_->Cancel(call.timeout);
  call.timeout = EventId{};
  ReleaseIfDone(slot);
}

void RpcCalls::ReleaseIfDone(uint32_t slot) {
  Call& call = calls_[slot];
  if (!call.resolved || call.deliveries > 0) {
    return;
  }
  ++call.generation;  // invalidates every outstanding handle
  call.on_reply = nullptr;
  call.fn = nullptr;
  call.on_status = nullptr;
  free_.push_back(slot);
}

void CallControl(Network& network, RegionId caller_region, ServerRegistry& registry,
                 ServerId target, std::function<Status(ShardServerApi&)> fn,
                 std::function<void(const Status&)> done, TimeMicros timeout) {
  SM_CHECK(static_cast<bool>(done));
  RpcCalls& calls = registry.rpc_calls();
  const RpcCalls::Handle h = calls.Open(network, caller_region, target, timeout);
  RpcCalls::Call& call = calls.at(h);
  call.fn = std::move(fn);
  call.on_status = std::move(done);
  calls.Launch(h, [h]() { h.calls->DeliverControl(h); });
}

void CallData(Network& network, RegionId caller_region, ServerRegistry& registry, ServerId target,
              Request request, ReplyCallback done, TimeMicros timeout) {
  SM_CHECK(static_cast<bool>(done));
  RpcCalls& calls = registry.rpc_calls();
  const RpcCalls::Handle h = calls.Open(network, caller_region, target, timeout);
  RpcCalls::Call& call = calls.at(h);
  call.request = request;
  call.on_reply = std::move(done);
  calls.Launch(h, [h]() { h.calls->DeliverData(h); });
}

}  // namespace shardman
