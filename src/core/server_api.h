// The SM programming model (paper Fig. 11): the interface an application server implements and
// the orchestrator invokes, plus the data-plane request types exchanged between clients and
// servers.
//
//   add_shard / drop_shard        — implemented by all applications;
//   change_role                   — primary-secondary applications;
//   prepare_add / prepare_drop    — the graceful primary-migration handshake (§4.3).

#ifndef SRC_CORE_SERVER_API_H_
#define SRC_CORE_SERVER_API_H_

#include <cstdint>
#include <vector>

#include "src/allocator/types.h"
#include "src/common/ids.h"
#include "src/common/resource.h"
#include "src/common/sim_time.h"
#include "src/common/small_function.h"
#include "src/common/status.h"

namespace shardman {

enum class RequestType {
  kRead,
  kWrite,
  kScan,  // prefix scan — exercises key locality (§3.1)
};

struct Request {
  AppId app;
  ShardId shard;            // resolved by the router
  uint64_t key = 0;
  RequestType type = RequestType::kRead;
  bool forwarded = false;   // set when an old primary forwards to the new primary (§4.3)
  int hops = 0;             // forwarding-loop guard
  RegionId client_region;
  TimeMicros sent_at = 0;
  uint64_t payload = 0;     // opaque application value (written on kWrite)
};

struct Reply {
  Status status;
  ServerId served_by;
  uint64_t value = 0;  // application result (read value / scan count)
  bool ok() const { return status.ok(); }
};

// The caller's continuation for one request. Move-only with 48 bytes of inline storage, so the
// RPC layer's reply closure (route plus call handle, 32 bytes) never touches the heap.
using ReplyCallback = SmallFn<void(const Reply&)>;

struct ShardLoadEntry {
  ShardId shard;
  ReplicaRole role = ReplicaRole::kSecondary;
  ResourceVector load;
};

struct ShardLoadReport {
  std::vector<ShardLoadEntry> entries;
};

// Implemented by application servers; invoked by the orchestrator over (simulated) RPC.
class ShardServerApi {
 public:
  virtual ~ShardServerApi() = default;

  // Take ownership of `shard` with `role` and begin serving it.
  virtual Status AddShard(ShardId shard, ReplicaRole role) = 0;

  // Stop serving `shard` and release its state.
  virtual Status DropShard(ShardId shard) = 0;

  // Switch the local replica of `shard` between primary and secondary.
  virtual Status ChangeRole(ShardId shard, ReplicaRole current, ReplicaRole next) = 0;

  // Graceful migration step 1 (§4.3): prepare to take over from `current_owner`. Until
  // AddShard, primary-type requests are accepted only when forwarded from the old owner.
  virtual Status PrepareAddShard(ShardId shard, ServerId current_owner, ReplicaRole role) = 0;

  // Graceful migration step 2 (§4.3): start forwarding primary-type requests to `new_owner`.
  virtual Status PrepareDropShard(ShardId shard, ServerId new_owner, ReplicaRole role) = 0;

  // Periodic load collection (§5): per-hosted-shard loads in the app's metric set.
  virtual ShardLoadReport ReportLoads() = 0;

  // Data plane: handle (or forward) a client request and reply asynchronously.
  virtual void HandleRequest(const Request& request, ReplyCallback done) = 0;
};

}  // namespace shardman

#endif  // SRC_CORE_SERVER_API_H_
