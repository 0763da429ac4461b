// ServerRegistry: the shared directory of application servers (one per container) with their
// topology placement and liveness, plus the simulated control/data RPC helper used to reach a
// server's ShardServerApi across the network.

#ifndef SRC_CORE_SERVER_REGISTRY_H_
#define SRC_CORE_SERVER_REGISTRY_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/resource.h"
#include "src/common/status.h"
#include "src/core/server_api.h"
#include "src/sim/network.h"

namespace shardman {

struct ServerHandle {
  ServerId id;
  ContainerId container;
  AppId app;
  MachineId machine;
  RegionId region;
  DataCenterId data_center;
  RackId rack;
  ResourceVector capacity;
  ShardServerApi* api = nullptr;
  bool alive = true;
};

class RpcCalls;

class ServerRegistry {
 public:
  ServerRegistry();
  ~ServerRegistry();
  ServerRegistry(const ServerRegistry&) = delete;
  ServerRegistry& operator=(const ServerRegistry&) = delete;

  // Registers a server; the id must be unused. The registry does not own `handle.api`.
  // Servers are never erased, so a handle's address is stable for the registry's lifetime.
  void Register(ServerHandle handle);

  ServerHandle* Get(ServerId id);
  const ServerHandle* Get(ServerId id) const;
  ServerHandle* GetByContainer(ContainerId container);

  void SetAlive(ServerId id, bool alive);
  bool IsAlive(ServerId id) const;

  // The app's servers, in the registry's hash-table iteration order. That order feeds
  // outcomes: the allocator's snapshot lists servers in it before sorting by id, and
  // callers walk it when they act per server. The list is built once and handed out until the
  // next Register, so hold the reference only while no server registers.
  const std::vector<ServerId>& ServersOf(AppId app) const;
  // Servers registered so far, over every app. Only grows: the registry never erases.
  size_t size() const { return servers_.size(); }

  // Caller-side records of the CallControl/CallData RPCs in flight against this registry.
  RpcCalls& rpc_calls() { return *rpc_calls_; }
  // Records currently held: calls awaiting a reply or timeout, plus resolved calls whose
  // request is still on the wire (tests: a finished round trip holds none).
  size_t RpcCallsInFlight() const;

 private:
  // Keyed by raw id. Ids are sparse (see ids.h), so nothing here is indexed by one.
  std::unordered_map<int32_t, ServerHandle> servers_;
  std::unordered_map<int32_t, ServerId> by_container_;
  // ServersOf's lists per app, cleared by Register (an insert may rehash and so reorder
  // servers_).
  mutable std::unordered_map<int32_t, std::vector<ServerId>> servers_of_;
  std::unique_ptr<RpcCalls> rpc_calls_;
};

// Invokes `fn` against the target server's API after one network hop, delivering the Status back
// to the caller's region after a second hop. If the server is dead at delivery time (or dies in
// between), `done` receives UnavailableError after `timeout` instead — modeling an RPC timeout.
//
// Each call keeps one pooled record on the caller's engine (network.sim()): `done`, the armed
// timeout and a resolved flag. The first of {reply, timeout} resolves it, cancels the other
// and runs `done` exactly once; a late or duplicated reply is a no-op. The request still
// reaches the server after a timeout, as on a real network. Callers must run on
// network.sim()'s engine (SM_CHECK enforced).
void CallControl(Network& network, RegionId caller_region, ServerRegistry& registry,
                 ServerId target, std::function<Status(ShardServerApi&)> fn,
                 std::function<void(const Status&)> done, TimeMicros timeout = Seconds(1));

// Data-plane variant: delivers a Request to the server's HandleRequest, routing the Reply back
// to the caller's region. Dead target => UnavailableError reply after `timeout`.
void CallData(Network& network, RegionId caller_region, ServerRegistry& registry, ServerId target,
              Request request, ReplyCallback done, TimeMicros timeout = Seconds(1));

}  // namespace shardman

#endif  // SRC_CORE_SERVER_REGISTRY_H_
