// Per-request RED accounting (Rate / Errors / Duration) for the zero-copy data plane.
//
// The router's hot path cannot touch the MetricsRegistry per pick (name hashing, maps, locks
// in a future threaded sim), so RequestAccountant pre-allocates every metric cell it will ever
// need at Configure() time and the hot path reduces to: bounds-check, index arithmetic, a few
// integer increments into a cache-line-sized cell. Zero allocations, zero branches on strings.
//
// Three fixed cell planes, each replicated `stripes` times:
//   * app cells:    (app slot, region, shard bucket) — per-app SLO accounting. Shards are
//     folded into `shard_buckets` power-of-two buckets so the plane stays small regardless of
//     shard count.
//   * server cells: one per server id — per-replica attempt outcomes, the gray-failure
//     scorer's primary signal.
//   * link cells:   (from region, to region) — per-directed-link attempt outcomes, feeding
//     link-level gray detection.
// plus a dense pick-rate plane — one bare counter per (stripe, app, region) — which is the
// only thing the per-pick path touches (see PickSlot).
//
// Each cell is alignas(64) (one cache line holds the counters; the histogram spills onto the
// next two) and each stripe is a contiguous padded slab, so the planned sharded parallel sim
// (ROADMAP item 1) can hand each worker its own stripe and write with zero contention. Readers
// (the health scorer, exporters) are cold: they sum across stripes into RedTotals snapshots
// and diff those per window.
//
// Durations use common/stats.h's LogLinearHistogram at S = 0, the log2 layout: bucket 0 holds
// [0,2) us and bucket b>=1 holds [2^b, 2^(b+1)) us, 28 buckets covering up to ~4.5 minutes.
// Percentile error is bounded at ~50% of the value, which is ample for p99-inflation ratio
// tests (factor >= 2 thresholds).
//
// The accountant is not telemetry: the gray-failure scorer and the split planner decide from
// its planes, so it has no macros and no switch. Callers use its API directly.

#ifndef SRC_OBS_REQUEST_ACCOUNTING_H_
#define SRC_OBS_REQUEST_ACCOUNTING_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"

namespace shardman {
namespace obs {

enum class AttemptOutcome : uint8_t {
  kOk = 0,
  kError = 1,    // non-timeout failure reply
  kTimeout = 2,  // attempt exceeded the router's request timeout
};

// One fixed metric slot. 64-byte aligned so adjacent cells in a stripe never share a line.
struct alignas(64) RedCell {
  // Pick counts (RedTotals::requests) live in a separate dense plane (see PickRow), not here:
  // the per-pick budget cannot afford a full cell touch.
  uint64_t completed = 0;       // attempts/requests finished (histogram entries)
  uint64_t errors = 0;          // completions that failed (includes timeouts)
  uint64_t timeouts = 0;        // completions classified as timeout
  uint64_t latency_sum_us = 0;  // sum over completed
  LogLinearHistogram<0, uint32_t> latency;
};
static_assert(sizeof(RedCell) % 64 == 0, "RedCell must be a whole number of cache lines");
// Three cache lines. The S = 4 layout (~1.6 KB a cell) would cost hotspot_flash's 6,160 cells
// ~8.7 MB against a ~21 MB peak RSS, and it would move every gray-health and split decision.
static_assert(sizeof(RedCell) == 192, "RedCell size is part of the accountant's RSS budget");

// A cold-side snapshot: one plane cell summed across stripes (or a Delta of two snapshots,
// giving a window). Plain uint64 math; safe to copy around.
struct RedTotals {
  // Pick attempts (app plane, fed by the pick plane; per-(app, region) only — bucket-level and
  // server/link totals leave this 0).
  uint64_t requests = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t latency_sum_us = 0;
  LogLinearHistogram<0, uint64_t> latency;

  void Accumulate(const RedCell& cell);
  void Add(const RedTotals& other);
  // this - prev, counter-wise. Counters are monotonic, so every field of `prev` must be <=
  // the matching field here; callers pass snapshots of the same cells in time order.
  RedTotals Delta(const RedTotals& prev) const;

  double error_ratio() const {
    return completed == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(completed);
  }
  double timeout_ratio() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(timeouts) / static_cast<double>(completed);
  }
  double mean_ms() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(latency_sum_us) / static_cast<double>(completed) / 1000.0;
  }
  // Histogram percentile (p in [0,1]) in ms. Returns 0 when the histogram is empty.
  double PercentileMs(double p) const { return latency.Percentile(p) / 1000.0; }
};

struct RequestAccountingOptions {
  int stripes = 4;        // independent writer slabs; readers sum across them
  int max_apps = 4;       // app slots available to RegisterApp
  int regions = 4;        // region ids must be < this
  int shard_buckets = 32; // power of two; shard ids fold into shard & (buckets-1)
  int max_servers = 1024; // server ids must be < this
};

class RequestAccountant {
 public:
  RequestAccountant() = default;
  RequestAccountant(const RequestAccountant&) = delete;
  RequestAccountant& operator=(const RequestAccountant&) = delete;

  // Allocates all cell planes (the only allocation this class ever performs) and enables
  // recording. Rounds shard_buckets up to a power of two and clamps degenerate options to 1.
  void Configure(const RequestAccountingOptions& options);
  bool configured() const { return !app_cells_.empty(); }
  const RequestAccountingOptions& options() const { return options_; }

  // Zeroes every cell without reallocating; app registrations survive.
  void Reset();

  void set_enabled(bool enabled) { enabled_ = enabled && configured(); }
  bool enabled() const { return enabled_; }

  // Maps an app onto a fixed slot (idempotent per app). Returns -1 once max_apps slots are
  // taken — such apps simply go unaccounted rather than faulting the data plane.
  int RegisterApp(AppId app);
  int AppSlot(AppId app) const;

  // ---- hot path (router) — inline, allocation-free, no-ops when !enabled() ----------------

  // The pick-rate counter for (stripe, app_slot, region). The router caches this pointer once
  // in SetAccounting, collapsing the per-pick cost to one pointer increment — no bounds
  // checks, no index math, no extra cache line. That is the whole budget: bench/obs_overhead's
  // <=5% gate leaves room for nothing more, which is also why the pick rate is deliberately
  // coarser than the app cells — per-shard-bucket resolution comes from the completion path
  // (durations, errors), which always follows a pick. Returns nullptr when out of range or
  // disabled. The pointer stays valid until the next Configure(); a cached slot bypasses later
  // set_enabled() changes by design — detach/re-fetch to honor them.
  uint64_t* PickSlot(int stripe, int app_slot, int region);

  // Convenience wrapper over PickSlot for non-caching callers (tests, one-shot accounting).
  void RecordPick(int stripe, int app_slot, int region) {
    if (uint64_t* slot = PickSlot(stripe, app_slot, region)) ++*slot;
  }

  void RecordAttempt(int stripe, int32_t server, int from_region, int to_region,
                     int64_t latency_us, AttemptOutcome outcome) {
    if (!enabled_) return;
    if (RedCell* cell = ServerCell(stripe, server)) Complete(*cell, latency_us, outcome);
    if (RedCell* cell = LinkCell(stripe, from_region, to_region)) {
      Complete(*cell, latency_us, outcome);
    }
  }

  void RecordRequestDone(int stripe, int app_slot, int region, int64_t shard,
                         int64_t latency_us, bool ok) {
    if (!enabled_) return;
    if (RedCell* cell = AppCell(stripe, app_slot, region, shard)) {
      Complete(*cell, latency_us, ok ? AttemptOutcome::kOk : AttemptOutcome::kError);
    }
  }

  // ---- cold path (health scorer, exporters, tests) ----------------------------------------

  RedTotals ServerTotals(int32_t server) const;
  RedTotals LinkTotals(int from_region, int to_region) const;
  RedTotals AppRegionTotals(int app_slot, int region) const;  // summed over shard buckets
  RedTotals AppRegionBucketTotals(int app_slot, int region, int bucket) const;

  // Total bytes held by the cell planes (sizing/diagnostics).
  size_t FootprintBytes() const;

 private:
  static void Complete(RedCell& cell, int64_t latency_us, AttemptOutcome outcome) {
    cell.completed++;
    if (outcome != AttemptOutcome::kOk) cell.errors++;
    if (outcome == AttemptOutcome::kTimeout) cell.timeouts++;
    if (latency_us < 0) latency_us = 0;
    cell.latency_sum_us += static_cast<uint64_t>(latency_us);
    cell.latency.Add(static_cast<uint64_t>(latency_us));
  }

  RedCell* AppCell(int stripe, int app_slot, int region, int64_t shard) {
    if (static_cast<unsigned>(stripe) >= static_cast<unsigned>(options_.stripes) ||
        static_cast<unsigned>(app_slot) >= static_cast<unsigned>(options_.max_apps) ||
        static_cast<unsigned>(region) >= static_cast<unsigned>(options_.regions)) {
      return nullptr;
    }
    int bucket = static_cast<int>(shard & (options_.shard_buckets - 1));
    size_t idx = ((static_cast<size_t>(stripe) * options_.max_apps + app_slot) *
                      options_.regions +
                  region) *
                     options_.shard_buckets +
                 bucket;
    return &app_cells_[idx];
  }
  RedCell* ServerCell(int stripe, int32_t server) {
    if (static_cast<unsigned>(stripe) >= static_cast<unsigned>(options_.stripes) ||
        static_cast<unsigned>(server) >= static_cast<unsigned>(options_.max_servers)) {
      return nullptr;
    }
    return &server_cells_[static_cast<size_t>(stripe) * options_.max_servers + server];
  }
  RedCell* LinkCell(int stripe, int from_region, int to_region) {
    if (static_cast<unsigned>(stripe) >= static_cast<unsigned>(options_.stripes) ||
        static_cast<unsigned>(from_region) >= static_cast<unsigned>(options_.regions) ||
        static_cast<unsigned>(to_region) >= static_cast<unsigned>(options_.regions)) {
      return nullptr;
    }
    size_t idx = (static_cast<size_t>(stripe) * options_.regions + from_region) *
                     options_.regions +
                 to_region;
    return &link_cells_[idx];
  }

  RequestAccountingOptions options_;
  bool enabled_ = false;
  // Dense pick-rate plane, one counter per (stripe, app, region) — the only plane the pick
  // path touches. Reported through AppRegionTotals().requests; bucket totals leave requests 0.
  std::vector<uint64_t> pick_counts_;
  std::vector<RedCell> app_cells_;
  std::vector<RedCell> server_cells_;
  std::vector<RedCell> link_cells_;
  std::vector<int32_t> app_slots_;  // AppId.value -> slot, -1 when unregistered
  int registered_apps_ = 0;
};

}  // namespace obs
}  // namespace shardman

#endif  // SRC_OBS_REQUEST_ACCOUNTING_H_
