#include "src/obs/request_accounting.h"

#include <algorithm>
#include <cstring>

namespace shardman {
namespace obs {
namespace {

int RoundUpPow2(int v) {
  if (v < 1) return 1;
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(v)));
}

}  // namespace

void RedTotals::Accumulate(const RedCell& cell) {
  completed += cell.completed;
  errors += cell.errors;
  timeouts += cell.timeouts;
  latency_sum_us += cell.latency_sum_us;
  latency.Merge(cell.latency);
}

void RedTotals::Add(const RedTotals& other) {
  requests += other.requests;
  completed += other.completed;
  errors += other.errors;
  timeouts += other.timeouts;
  latency_sum_us += other.latency_sum_us;
  latency.Merge(other.latency);
}

RedTotals RedTotals::Delta(const RedTotals& prev) const {
  RedTotals out = *this;
  out.requests -= prev.requests;
  out.completed -= prev.completed;
  out.errors -= prev.errors;
  out.timeouts -= prev.timeouts;
  out.latency_sum_us -= prev.latency_sum_us;
  out.latency.Subtract(prev.latency);
  return out;
}

void RequestAccountant::Configure(const RequestAccountingOptions& options) {
  options_ = options;
  options_.stripes = std::max(1, options_.stripes);
  options_.max_apps = std::max(1, options_.max_apps);
  options_.regions = std::max(1, options_.regions);
  options_.max_servers = std::max(1, options_.max_servers);
  options_.shard_buckets = RoundUpPow2(options_.shard_buckets);

  size_t app_cells = static_cast<size_t>(options_.stripes) * options_.max_apps *
                     options_.regions * options_.shard_buckets;
  size_t server_cells = static_cast<size_t>(options_.stripes) * options_.max_servers;
  size_t link_cells =
      static_cast<size_t>(options_.stripes) * options_.regions * options_.regions;
  pick_counts_.assign(
      static_cast<size_t>(options_.stripes) * options_.max_apps * options_.regions, 0);
  app_cells_.assign(app_cells, RedCell{});
  server_cells_.assign(server_cells, RedCell{});
  link_cells_.assign(link_cells, RedCell{});
  app_slots_.assign(4096, -1);
  registered_apps_ = 0;
  enabled_ = true;
}

void RequestAccountant::Reset() {
  std::fill(pick_counts_.begin(), pick_counts_.end(), 0);
  std::fill(app_cells_.begin(), app_cells_.end(), RedCell{});
  std::fill(server_cells_.begin(), server_cells_.end(), RedCell{});
  std::fill(link_cells_.begin(), link_cells_.end(), RedCell{});
}

int RequestAccountant::RegisterApp(AppId app) {
  if (!configured() || !app.valid()) return -1;
  if (static_cast<size_t>(app.value) >= app_slots_.size()) {
    app_slots_.resize(static_cast<size_t>(app.value) + 1, -1);
  }
  int32_t& slot = app_slots_[app.value];
  if (slot >= 0) return slot;
  if (registered_apps_ >= options_.max_apps) return -1;
  slot = registered_apps_++;
  return slot;
}

uint64_t* RequestAccountant::PickSlot(int stripe, int app_slot, int region) {
  if (!enabled_ ||
      static_cast<unsigned>(stripe) >= static_cast<unsigned>(options_.stripes) ||
      static_cast<unsigned>(app_slot) >= static_cast<unsigned>(options_.max_apps) ||
      static_cast<unsigned>(region) >= static_cast<unsigned>(options_.regions)) {
    return nullptr;
  }
  size_t idx =
      (static_cast<size_t>(stripe) * options_.max_apps + app_slot) * options_.regions + region;
  return &pick_counts_[idx];
}

int RequestAccountant::AppSlot(AppId app) const {
  if (!app.valid() || static_cast<size_t>(app.value) >= app_slots_.size()) return -1;
  return app_slots_[app.value];
}

RedTotals RequestAccountant::ServerTotals(int32_t server) const {
  RedTotals out;
  if (static_cast<unsigned>(server) >= static_cast<unsigned>(options_.max_servers) ||
      server_cells_.empty()) {
    return out;
  }
  for (int s = 0; s < options_.stripes; ++s) {
    out.Accumulate(server_cells_[static_cast<size_t>(s) * options_.max_servers + server]);
  }
  return out;
}

RedTotals RequestAccountant::LinkTotals(int from_region, int to_region) const {
  RedTotals out;
  if (static_cast<unsigned>(from_region) >= static_cast<unsigned>(options_.regions) ||
      static_cast<unsigned>(to_region) >= static_cast<unsigned>(options_.regions) ||
      link_cells_.empty()) {
    return out;
  }
  for (int s = 0; s < options_.stripes; ++s) {
    size_t idx =
        (static_cast<size_t>(s) * options_.regions + from_region) * options_.regions +
        to_region;
    out.Accumulate(link_cells_[idx]);
  }
  return out;
}

RedTotals RequestAccountant::AppRegionBucketTotals(int app_slot, int region, int bucket) const {
  RedTotals out;
  if (static_cast<unsigned>(app_slot) >= static_cast<unsigned>(options_.max_apps) ||
      static_cast<unsigned>(region) >= static_cast<unsigned>(options_.regions) ||
      static_cast<unsigned>(bucket) >= static_cast<unsigned>(options_.shard_buckets) ||
      app_cells_.empty()) {
    return out;
  }
  for (int s = 0; s < options_.stripes; ++s) {
    size_t idx = ((static_cast<size_t>(s) * options_.max_apps + app_slot) * options_.regions +
                  region) *
                     options_.shard_buckets +
                 bucket;
    out.Accumulate(app_cells_[idx]);
  }
  return out;
}

RedTotals RequestAccountant::AppRegionTotals(int app_slot, int region) const {
  RedTotals out;
  if (static_cast<unsigned>(app_slot) < static_cast<unsigned>(options_.max_apps) &&
      static_cast<unsigned>(region) < static_cast<unsigned>(options_.regions) &&
      !pick_counts_.empty()) {
    for (int s = 0; s < options_.stripes; ++s) {
      out.requests +=
          pick_counts_[(static_cast<size_t>(s) * options_.max_apps + app_slot) *
                           options_.regions +
                       region];
    }
  }
  for (int b = 0; b < options_.shard_buckets; ++b) {
    out.Add(AppRegionBucketTotals(app_slot, region, b));
  }
  return out;
}

size_t RequestAccountant::FootprintBytes() const {
  return (app_cells_.size() + server_cells_.size() + link_cells_.size()) * sizeof(RedCell) +
         pick_counts_.size() * sizeof(uint64_t);
}

}  // namespace obs
}  // namespace shardman
