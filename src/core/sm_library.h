// SmLibrary: the server-side SM glue linked into every application server (§3.2).
//
// Responsibilities reproduced from the paper:
//   * maintains a coordination-store session with an ephemeral liveness node;
//   * on (re)boot, reads the server's shard assignment from the coordination store and re-adds
//     the shards locally — with no dependency on the live SM control plane.

#ifndef SRC_CORE_SM_LIBRARY_H_
#define SRC_CORE_SM_LIBRARY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/coord/coord_store.h"
#include "src/core/server_api.h"

namespace shardman {

// One parsed entry of a persisted server assignment.
struct PersistedReplica {
  ShardId shard;
  int replica = 0;
  ReplicaRole role = ReplicaRole::kSecondary;
};

// The one codec of the per-server assignment node /sm/<app>/assign/<server>
// ("<shard>:<replica>:<p|s>;..."): the orchestrator writes it, and the orchestrator's recovery,
// a booting server and the invariant checker read it. Parsing skips a malformed entry and an
// unterminated tail, and keeps the well-formed entries around them.
std::string SerializeAssignment(std::span<const PersistedReplica> replicas);
std::vector<PersistedReplica> ParseAssignment(std::string_view data);

class SmLibrary {
 public:
  SmLibrary(CoordStore* coord, std::string app_name, ServerId server, ShardServerApi* self);

  // Establishes the liveness session and ephemeral node. Called on container start.
  void Connect();

  // Expires the session (deleting the ephemeral node). Called on container stop/crash.
  void Disconnect();

  // ZooKeeper-style fencing: when the session expires while the process is still alive (gray
  // failure), the server must stop claiming primary ownership — the orchestrator will promote
  // a survivor and two direct writers must never coexist. Demotes every locally-held primary
  // to secondary (keeping data so a later reconnect can resume cheaply). Call after the
  // session has been expired externally (e.g. CoordStore::ExpireSessions).
  void OnSessionExpired();

  bool connected() const;
  // The current session (invalid when disconnected). Exposed for fault injection: a chaos
  // scenario expires sessions directly via CoordStore to model ZK-side expiry of a live server.
  SessionId session() const { return session_; }

  // Reads the persisted assignment and calls AddShard for each entry — boot-time recovery
  // without the control plane (§3.2). Returns the number of shards restored.
  int RestoreAssignmentFromCoord();

  // The liveness node path for this server.
  std::string LivenessPath() const;
  std::string AssignmentPath() const;

 private:
  CoordStore* coord_;
  std::string app_name_;
  ServerId server_;
  ShardServerApi* self_;
  SessionId session_;
};

}  // namespace shardman

#endif  // SRC_CORE_SM_LIBRARY_H_
