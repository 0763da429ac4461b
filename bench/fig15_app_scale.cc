// Figure 15 reproduction: the scale distribution of SM application deployments.
//
// The paper's production scatter plots each deployment as (#servers, #shards) on log-log axes:
// most deployments are small, 14% use >= 1,000 servers, and the largest uses ~19K servers and
// ~2.6M shards. The production fleet is regenerated here from the calibrated population model
// (workload/population), and the same summary statistics are reported next to the paper's
// anchors.
//
// Delta mode (DESIGN.md §10): the same fleet, viewed through the dissemination layer. A
// snapshot publish ships every shard row; a delta publish for a one-server event (drain,
// failover, upgrade restart) ships only the rows that server's replicas touch —
// ~shards x replication / servers. The projection table reports both per deployment, and one
// representative deployment is validated with the real DiffShardMaps. The *measured* 100k-shard
// comparison (entries + apply cost, snapshot vs delta) lives in bench/micro_dataplane, which
// emits BENCH_delta.json.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/discovery/shard_map.h"
#include "src/workload/population.h"

using namespace shardman;
using namespace shardman::bench;

int main() {
  PrintHeader("Fig 15: scale of SM application deployments",
              "§8.1, Figure 15 — scatter of (#servers, #shards) per deployment; largest ~19K "
              "servers / ~2.6M shards; 14% of deployments >= 1000 servers");

  Rng rng(15);
  PopulationConfig config;
  std::vector<AppDeploymentSample> population = SampleAppPopulation(config, rng);

  // The scatter itself (CSV, one row per deployment).
  std::cout << "deployment scatter (servers,shards,geo):\n";
  TablePrinter scatter({"servers", "shards", "geo"});
  for (const AppDeploymentSample& sample : population) {
    scatter.AddRowValues(sample.servers, sample.shards, sample.geo_distributed ? 1 : 0);
  }
  scatter.PrintCsv(std::cout);

  // Summary statistics vs. the paper's anchors.
  std::vector<AppDeploymentSample> sorted = population;
  std::sort(sorted.begin(), sorted.end(),
            [](const AppDeploymentSample& a, const AppDeploymentSample& b) {
              return a.servers < b.servers;
            });
  int64_t ge_1000 = 0;
  int64_t total_servers = 0;
  int64_t total_shards = 0;
  for (const AppDeploymentSample& sample : sorted) {
    if (sample.servers >= 1000) {
      ++ge_1000;
    }
    total_servers += sample.servers;
    total_shards += sample.shards;
  }
  auto pct = [&](double p) {
    return sorted[static_cast<size_t>(p * static_cast<double>(sorted.size() - 1))].servers;
  };
  std::cout << "\nSummary vs. paper anchors:\n";
  TablePrinter summary({"statistic", "model", "paper"});
  summary.AddRowValues(std::string("deployments"), sorted.size(), std::string("hundreds"));
  summary.AddRowValues(std::string("largest_servers"), sorted.back().servers,
                       std::string("~19000"));
  summary.AddRowValues(std::string("largest_shards"),
                       std::max_element(sorted.begin(), sorted.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.shards < b.shards;
                                        })
                           ->shards,
                       std::string("~2.6M"));
  summary.AddRowValues(std::string("pct_ge_1000_servers"),
                       FormatDouble(100.0 * static_cast<double>(ge_1000) /
                                        static_cast<double>(sorted.size()),
                                    1),
                       std::string("14%"));
  summary.AddRowValues(std::string("median_servers"), pct(0.5), std::string("small"));
  summary.AddRowValues(std::string("total_servers"), total_servers, std::string(">1M"));
  summary.AddRowValues(std::string("total_shards"), total_shards, std::string("~100M"));
  summary.Print(std::cout);

  // Delta-mode dissemination projection: per-publish entries shipped fleet-wide for a
  // one-server event, snapshot mode vs delta mode (replication factor 3).
  constexpr int64_t kReplication = 3;
  int64_t fleet_snapshot_entries = 0;
  int64_t fleet_delta_entries = 0;
  for (const AppDeploymentSample& sample : sorted) {
    int64_t touched =
        std::min(sample.shards,
                 std::max<int64_t>(1, sample.shards * kReplication / sample.servers));
    fleet_snapshot_entries += sample.shards;
    fleet_delta_entries += touched;
  }
  std::cout << "\nDelta dissemination projection (one-server publish, per deployment summed "
               "fleet-wide):\n";
  TablePrinter delta_table({"mode", "entries_per_publish", "reduction"});
  delta_table.AddRowValues(std::string("snapshot"), fleet_snapshot_entries, std::string("1x"));
  delta_table.AddRowValues(
      std::string("delta"), fleet_delta_entries,
      FormatDouble(static_cast<double>(fleet_snapshot_entries) /
                       static_cast<double>(fleet_delta_entries > 0 ? fleet_delta_entries : 1),
                   1) +
          "x");
  delta_table.Print(std::cout);

  // Validate the projection with the real diff on a representative large deployment: move one
  // server's replicas elsewhere and check the delta ships exactly the touched rows.
  {
    const int64_t kShards = 200000;
    const int64_t kServers = 1000;
    ShardMap from;
    from.app = AppId(1);
    from.version = 1;
    from.entries.resize(static_cast<size_t>(kShards));
    for (int64_t s = 0; s < kShards; ++s) {
      ShardMapEntry& entry = from.entries[static_cast<size_t>(s)];
      entry.shard = ShardId(static_cast<int32_t>(s));
      for (int64_t r = 0; r < kReplication; ++r) {
        ShardMapReplica replica;
        replica.server = ServerId(static_cast<int32_t>((s * kReplication + r) % kServers));
        replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
        replica.region = RegionId(static_cast<int32_t>(r % 3));
        entry.replicas.push_back(replica);
      }
    }
    ShardMap to = from;
    ++to.version;
    int64_t touched = 0;
    for (ShardMapEntry& entry : to.entries) {
      bool hit = false;
      for (ShardMapReplica& replica : entry.replicas) {
        if (replica.server.value == 0) {  // server 0 fails over
          replica.server = ServerId(static_cast<int32_t>(kServers));
          hit = true;
        }
      }
      touched += hit ? 1 : 0;
    }
    ShardMapDelta delta = DiffShardMaps(from, to);
    std::cout << "\nMeasured validation (200k shards, 1000 servers, one server fails over):\n";
    TablePrinter measured({"mode", "entries_shipped"});
    measured.AddRowValues(std::string("snapshot"), static_cast<int64_t>(to.entries.size()));
    measured.AddRowValues(std::string("delta"), static_cast<int64_t>(delta.changed.size()));
    measured.Print(std::cout);
    if (static_cast<int64_t>(delta.changed.size()) != touched) {
      std::cerr << "FATAL: delta shipped " << delta.changed.size() << " rows, expected "
                << touched << "\n";
      return 1;
    }
  }

  return 0;
}
