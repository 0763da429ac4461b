#include "src/smr/op_log.h"

#include <charconv>
#include <cstdio>

#include "src/common/check.h"

namespace shardman {

PlacementOpLog::PlacementOpLog(CoordStore* coord, std::string app_name)
    : coord_(coord),
      prefix_("/sm/" + app_name + "/smr/oplog/"),
      next_path_("/sm/" + app_name + "/smr/oplog_next") {
  SM_CHECK(coord != nullptr);
  // A successor's log continues the persisted sequence: numbers are never reused.
  Result<std::string> next = coord_->Get(next_path_);
  next_seq_ = next.ok() ? std::stoll(next.value()) : 1;
}

// The leader appends and completes one entry per placement operation (3,000 during a
// 3,000-shard initial placement), so paths and payloads are formatted with std::to_chars.
std::string PlacementOpLog::EntryPath(int64_t seq) const {
  char digits[20];
  const size_t len = static_cast<size_t>(std::to_chars(digits, digits + sizeof(digits), seq).ptr -
                                         digits);
  std::string path = prefix_;
  path.append(len < 12 ? 12 - len : 0, '0');  // zero-padded: List() order is append order
  path.append(digits, len);
  return path;
}

std::string PlacementOpLog::Serialize(const PlacementOpRecord& record) {
  const int64_t fields[] = {record.epoch,   record.kind,       record.shard.value,
                            record.replica, record.from.value, record.to.value};
  char buf[160];  // 6 x 20 digits + 20 for aux + 6 separators
  char* out = buf;
  for (int64_t field : fields) {
    out = std::to_chars(out, buf + sizeof(buf) - 1, field).ptr;  // leaves room for the ':'
    *out++ = ':';
  }
  out = std::to_chars(out, buf + sizeof(buf), record.aux).ptr;
  return std::string(buf, out);
}

bool PlacementOpLog::Parse(const std::string& data, PlacementOpRecord* record) {
  long long epoch = 0;
  int kind = 0;
  int shard = 0;
  int replica = 0;
  int from = 0;
  int to = 0;
  unsigned long long aux = 0;
  // Accept the pre-§15 six-field form (no aux) so logs written by an older leader still
  // reconcile; aux defaults to 0 for them.
  int matched = std::sscanf(data.c_str(), "%lld:%d:%d:%d:%d:%d:%llu", &epoch, &kind, &shard,
                            &replica, &from, &to, &aux);
  if (matched != 6 && matched != 7) {
    return false;
  }
  record->epoch = epoch;
  record->kind = kind;
  record->shard = ShardId(shard);
  record->replica = replica;
  record->from = ServerId(from);
  record->to = ServerId(to);
  record->aux = matched == 7 ? static_cast<uint64_t>(aux) : 0;
  return true;
}

int64_t PlacementOpLog::Append(const PlacementOpRecord& record) {
  const int64_t seq = next_seq_++;
  PlacementOpRecord entry = record;
  entry.seq = seq;
  SM_CHECK_OK(coord_->Set(EntryPath(seq), Serialize(entry)));
  SM_CHECK_OK(coord_->Set(next_path_, std::to_string(next_seq_)));
  ++appended_;
  return seq;
}

void PlacementOpLog::Complete(int64_t seq) {
  if (coord_->Delete(EntryPath(seq)).ok()) {
    ++completed_;
  }
}

std::vector<PlacementOpRecord> PlacementOpLog::IncompleteTail() const {
  std::vector<PlacementOpRecord> tail;
  for (const std::string& path : coord_->List(prefix_)) {
    Result<std::string> data = coord_->Get(path);
    if (!data.ok()) {
      continue;
    }
    PlacementOpRecord record;
    if (!Parse(data.value(), &record)) {
      continue;
    }
    record.seq = std::stoll(path.substr(prefix_.size()));
    tail.push_back(record);
  }
  return tail;
}

void PlacementOpLog::Clear() {
  for (const std::string& path : coord_->List(prefix_)) {
    (void)coord_->Delete(path);
  }
}

}  // namespace shardman
