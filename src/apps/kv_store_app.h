// KvStoreApp: an in-memory key-value store in the style of Laser (§3.1) — the canonical
// primary-only SM application. Supports point reads, writes and prefix scans (the operation that
// requires key locality and thus the app-key sharding abstraction).
//
// State is soft (§2.4 option 2/3): a crash or DropShard discards the shard's data; production
// systems rebuild it from an external store, which the simulation does not need to model for
// the availability experiments.

#ifndef SRC_APPS_KV_STORE_APP_H_
#define SRC_APPS_KV_STORE_APP_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/shard_host_base.h"

namespace shardman {

class KvStoreApp : public ShardHostBase {
 public:
  using ShardHostBase::ShardHostBase;

  // Number of keys currently stored for a shard (test introspection).
  size_t ShardSize(ShardId shard) const;

 protected:
  Reply ApplyRequest(LocalShard& shard, const Request& request) override;
  void OnShardDropped(ShardId shard) override;
  void OnCrashExtra() override;

 private:
  // Per-shard store: (key, value) pairs sorted by key, one contiguous array per shard, so a
  // point lookup is a binary search and a prefix scan a forward walk. Shards hold a handful of
  // keys, where a node-based map costs a pointer chase per level.
  std::unordered_map<int32_t, std::vector<std::pair<uint64_t, uint64_t>>> data_;
};

}  // namespace shardman

#endif  // SRC_APPS_KV_STORE_APP_H_
