// PlacementOpLog: the replicated log of placement decisions behind control-plane failover
// without quiescence (DESIGN.md §11).
//
// The leader appends one entry when it starts executing a placement operation and marks it
// complete (which prunes it) when the operation finishes or is abandoned. The log therefore
// holds exactly the operations that were in flight when a leader died — the tail a follower
// that wins the lease reconciles against before resuming placement mid-operation.
//
// Entries live in the coordination store under /sm/<app>/smr/oplog/<seq> (zero-padded so
// List() returns them in append order), with the next sequence number at
// /sm/<app>/smr/oplog_next. Every write carries the appender's leadership epoch; together
// with the store-side write fence this makes the log safe against stale leaders.

#ifndef SRC_SMR_OP_LOG_H_
#define SRC_SMR_OP_LOG_H_

#include <string>
#include <vector>

#include "src/coord/coord_store.h"
#include "src/core/orchestrator.h"

namespace shardman {

class PlacementOpLog {
 public:
  PlacementOpLog(CoordStore* coord, std::string app_name);

  // Appends an entry for an operation that is about to start; returns its sequence number.
  // The record's `seq` field is ignored on input.
  int64_t Append(const PlacementOpRecord& record);

  // Marks the entry complete and prunes it from the store. Unknown sequences are ignored
  // (a fenced leader's completion may race the new leader's reconciliation pruning).
  void Complete(int64_t seq);

  // Every entry whose operation never completed, in append order — the reconciliation input
  // for a freshly elected leader. Malformed entries are skipped.
  std::vector<PlacementOpRecord> IncompleteTail() const;

  // Prunes every entry (a new leader calls this once its reconciliation pass has consumed the
  // tail, so the log only ever describes *its* in-flight operations afterwards).
  void Clear();

  int64_t appended() const { return appended_; }
  int64_t completed() const { return completed_; }

  static std::string Serialize(const PlacementOpRecord& record);
  // Returns false when the payload does not parse.
  static bool Parse(const std::string& data, PlacementOpRecord* record);

 private:
  std::string EntryPath(int64_t seq) const;

  CoordStore* coord_;
  std::string prefix_;     // /sm/<app>/smr/oplog/
  std::string next_path_;  // /sm/<app>/smr/oplog_next
  int64_t next_seq_ = 1;  // mirrors next_path_, read once at construction
  int64_t appended_ = 0;
  int64_t completed_ = 0;
};

}  // namespace shardman

#endif  // SRC_SMR_OP_LOG_H_
