#include "src/apps/kv_store_app.h"

#include <algorithm>

namespace shardman {

namespace {
// Prefix scans cover this many consecutive keys starting at the request key.
constexpr uint64_t kScanSpan = 1024;

using Store = std::vector<std::pair<uint64_t, uint64_t>>;

// First entry whose key is >= `key`.
Store::iterator LowerBound(Store& store, uint64_t key) {
  return std::lower_bound(store.begin(), store.end(), key,
                          [](const std::pair<uint64_t, uint64_t>& entry, uint64_t k) {
                            return entry.first < k;
                          });
}
}  // namespace

Reply KvStoreApp::ApplyRequest(LocalShard& shard, const Request& request) {
  Reply reply;
  auto& store = data_[request.shard.value];
  switch (request.type) {
    case RequestType::kWrite: {
      auto it = LowerBound(store, request.key);
      if (it != store.end() && it->first == request.key) {
        it->second = request.payload;
      } else {
        store.emplace(it, request.key, request.payload);
      }
      reply.value = request.payload;
      break;
    }
    case RequestType::kRead: {
      auto it = LowerBound(store, request.key);
      reply.value = it != store.end() && it->first == request.key ? it->second : 0;
      break;
    }
    case RequestType::kScan: {
      // Count (and "return") all keys in [key, key + kScanSpan): the key-locality-dependent
      // operation Slicer's UUID-key approach cannot support (§3.1).
      uint64_t count = 0;
      uint64_t end = request.key + kScanSpan;
      for (auto it = LowerBound(store, request.key); it != store.end() && it->first < end;
           ++it) {
        ++count;
      }
      reply.value = count;
      break;
    }
  }
  return reply;
}

void KvStoreApp::OnShardDropped(ShardId shard) { data_.erase(shard.value); }

void KvStoreApp::OnCrashExtra() { data_.clear(); }

size_t KvStoreApp::ShardSize(ShardId shard) const {
  auto it = data_.find(shard.value);
  return it != data_.end() ? it->second.size() : 0;
}

}  // namespace shardman
