// Data-plane SLO observability tests (DESIGN.md §12): RequestAccountant cell planes
// (recording, striping, windowed deltas, histogram percentiles, registration limits), the
// GrayHealthScorer state machine (median-of-peers outlier detection, flag/clear/silent-clear
// hysteresis, the availability guard, link-level judgement), router demotion semantics (the
// bit-identical-pick contract with an empty view, steering around demoted replicas, the
// all-demoted fallback), and one closed-loop run where a degraded network link ends up demoted
// with no hand-fed signals.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/app_spec.h"
#include "src/core/server_registry.h"
#include "src/discovery/service_discovery.h"
#include "src/obs/request_accounting.h"
#include "src/routing/gray_health.h"
#include "src/routing/service_router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace shardman {
namespace {

using obs::AttemptOutcome;
using obs::RedTotals;
using obs::RequestAccountant;
using obs::RequestAccountingOptions;

// -- RequestAccountant -------------------------------------------------------------------------

TEST(RequestAccounting, PercentilesFromTheLog2Histogram) {
  RedTotals totals;
  EXPECT_DOUBLE_EQ(totals.PercentileMs(0.99), 0.0);  // empty histogram
  // 90 fast completions (~1ms) and 10 slow ones (~64ms): p50 lands in the fast bucket, p99 in
  // the slow one. Log buckets bound the error at ~2x, which is what the thresholds assume.
  for (int i = 0; i < 90; ++i) {
    totals.latency.Add(1000);
    ++totals.completed;
  }
  for (int i = 0; i < 10; ++i) {
    totals.latency.Add(60000);
    ++totals.completed;
  }
  EXPECT_GT(totals.PercentileMs(0.5), 0.5);
  EXPECT_LT(totals.PercentileMs(0.5), 2.5);
  EXPECT_GT(totals.PercentileMs(0.99), 30.0);
  EXPECT_LT(totals.PercentileMs(0.99), 70.0);
}

TEST(RequestAccounting, RecordsAcrossStripesAndSumsInTotals) {
  RequestAccountant accountant;
  RequestAccountingOptions options;
  options.stripes = 3;
  options.regions = 2;
  options.max_servers = 8;
  accountant.Configure(options);
  ASSERT_TRUE(accountant.configured());
  int slot = accountant.RegisterApp(AppId(1));
  ASSERT_EQ(slot, 0);

  // Each stripe records independently; readers see the sum.
  for (int stripe = 0; stripe < 3; ++stripe) {
    accountant.RecordPick(stripe, slot, 0);
    accountant.RecordAttempt(stripe, /*server=*/5, /*from=*/0, /*to=*/1, /*latency_us=*/2000,
                             stripe == 0 ? AttemptOutcome::kTimeout : AttemptOutcome::kOk);
    accountant.RecordRequestDone(stripe, slot, 0, /*shard=*/7, /*latency_us=*/3000,
                                 /*ok=*/stripe != 1);
  }
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).requests, 3u);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).completed, 3u);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).errors, 1u);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 1).completed, 0u);

  RedTotals server = accountant.ServerTotals(5);
  EXPECT_EQ(server.completed, 3u);
  EXPECT_EQ(server.timeouts, 1u);
  EXPECT_EQ(server.errors, 1u);  // timeouts count as errors
  EXPECT_EQ(server.latency_sum_us, 6000u);
  EXPECT_EQ(accountant.LinkTotals(0, 1).completed, 3u);
  EXPECT_EQ(accountant.LinkTotals(1, 0).completed, 0u);

  // Out-of-range coordinates are dropped, not faulted.
  accountant.RecordPick(99, slot, 0);
  accountant.RecordAttempt(0, /*server=*/999, 0, 1, 100, AttemptOutcome::kOk);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).requests, 3u);
  EXPECT_EQ(accountant.ServerTotals(7).completed, 0u);
}

TEST(RequestAccounting, WindowDeltaSubtractsCounters) {
  RequestAccountant accountant;
  accountant.Configure(RequestAccountingOptions{});
  accountant.RecordAttempt(0, 1, 0, 0, 1000, AttemptOutcome::kOk);
  RedTotals before = accountant.ServerTotals(1);
  accountant.RecordAttempt(0, 1, 0, 0, 2000, AttemptOutcome::kTimeout);
  accountant.RecordAttempt(0, 1, 0, 0, 3000, AttemptOutcome::kOk);
  RedTotals window = accountant.ServerTotals(1).Delta(before);
  EXPECT_EQ(window.completed, 2u);
  EXPECT_EQ(window.timeouts, 1u);
  EXPECT_DOUBLE_EQ(window.timeout_ratio(), 0.5);
  EXPECT_EQ(window.latency_sum_us, 5000u);
}

TEST(RequestAccounting, AppSlotsAreIdempotentAndBounded) {
  RequestAccountant accountant;
  RequestAccountingOptions options;
  options.max_apps = 2;
  accountant.Configure(options);
  EXPECT_EQ(accountant.RegisterApp(AppId(10)), 0);
  EXPECT_EQ(accountant.RegisterApp(AppId(10)), 0);  // idempotent
  EXPECT_EQ(accountant.RegisterApp(AppId(11)), 1);
  EXPECT_EQ(accountant.RegisterApp(AppId(12)), -1);  // slots exhausted: unaccounted, no fault
  EXPECT_EQ(accountant.AppSlot(AppId(11)), 1);
  EXPECT_EQ(accountant.AppSlot(AppId(12)), -1);
}

TEST(RequestAccounting, ResetZeroesCountsAndKeepsRegistrations) {
  RequestAccountant accountant;
  accountant.Configure(RequestAccountingOptions{});
  int slot = accountant.RegisterApp(AppId(1));
  accountant.RecordPick(0, slot, 0);
  accountant.RecordAttempt(0, 2, 0, 0, 500, AttemptOutcome::kError);
  accountant.Reset();
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).requests, 0u);
  EXPECT_EQ(accountant.ServerTotals(2).completed, 0u);
  EXPECT_EQ(accountant.AppSlot(AppId(1)), slot);  // registrations survive
}

TEST(RequestAccounting, DisabledRecordsNothing) {
  RequestAccountant accountant;
  accountant.Configure(RequestAccountingOptions{});
  int slot = accountant.RegisterApp(AppId(1));
  accountant.set_enabled(false);
  EXPECT_EQ(accountant.PickSlot(0, slot, 0), nullptr);
  accountant.RecordPick(0, slot, 0);
  accountant.RecordAttempt(0, 1, 0, 0, 100, AttemptOutcome::kOk);
  accountant.RecordRequestDone(0, slot, 0, 0, 100, true);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).requests, 0u);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).completed, 0u);
  EXPECT_EQ(accountant.ServerTotals(1).completed, 0u);
  accountant.set_enabled(true);
  EXPECT_NE(accountant.PickSlot(0, slot, 0), nullptr);
}

// -- GrayHealthScorer (synthetic windows, manual ticks) ----------------------------------------

GrayHealthConfig TestHealthConfig() {
  GrayHealthConfig config;
  config.min_attempts = 10;
  config.min_peers = 3;
  config.timeout_ratio_factor = 3.0;
  config.timeout_ratio_floor = 0.05;
  config.p99_inflation_factor = 3.0;
  config.p99_floor_ms = 2.0;
  config.flag_after_windows = 2;
  config.clear_after_windows = 3;
  config.silent_clear_windows = 6;
  return config;
}

// One synthetic window of traffic: 20 attempts per server, `bad_server` failing with 50%
// timeouts (others clean, ~1.5ms).
void FeedWindow(RequestAccountant* accountant, int servers, int bad_server,
                int64_t bad_latency_us = 1500, int bad_timeouts = 10) {
  for (int s = 0; s < servers; ++s) {
    for (int i = 0; i < 20; ++i) {
      const bool bad = s == bad_server && i < bad_timeouts;
      accountant->RecordAttempt(0, s, 0, 0, bad ? bad_latency_us : 1500,
                                bad ? AttemptOutcome::kTimeout : AttemptOutcome::kOk);
    }
  }
}

struct ScorerFixture {
  Simulator sim;
  RequestAccountant accountant;

  ScorerFixture() {
    RequestAccountingOptions options;
    options.stripes = 1;
    options.regions = 4;
    options.max_servers = 16;
    accountant.Configure(options);
  }
};

TEST(GrayHealthScorer, FlagsTimeoutOutlierAfterStreakAndPublishesDemotion) {
  ScorerFixture f;
  GrayHealthScorer scorer(&f.sim, &f.accountant, TestHealthConfig());

  FeedWindow(&f.accountant, 6, /*bad_server=*/5);
  scorer.Tick();
  EXPECT_FALSE(scorer.IsFlagged(ServerId(5)));  // one outlier window < flag_after_windows
  EXPECT_EQ(scorer.flagged_count(), 0);

  FeedWindow(&f.accountant, 6, /*bad_server=*/5);
  scorer.Tick();
  EXPECT_TRUE(scorer.IsFlagged(ServerId(5)));
  EXPECT_EQ(scorer.flagged_count(), 1);
  EXPECT_EQ(scorer.demoted_count(), 1);
  ASSERT_EQ(scorer.gray_flags_size(), 16);
  EXPECT_EQ(scorer.gray_flags()[5], 1);
  EXPECT_EQ(scorer.gray_flags()[0], 0);

  ASSERT_EQ(scorer.events().size(), 1u);
  const HealthEvent& event = scorer.events()[0];
  EXPECT_EQ(event.kind, HealthEventKind::kReplicaGray);
  EXPECT_EQ(event.signal, HealthSignal::kTimeoutRatio);
  EXPECT_EQ(event.server, ServerId(5));
  EXPECT_DOUBLE_EQ(event.value, 0.5);
  EXPECT_DOUBLE_EQ(event.median, 0.0);
}

TEST(GrayHealthScorer, RecoversAfterJudgedHealthyStreak) {
  ScorerFixture f;
  GrayHealthScorer scorer(&f.sim, &f.accountant, TestHealthConfig());
  FeedWindow(&f.accountant, 6, 5);
  scorer.Tick();
  FeedWindow(&f.accountant, 6, 5);
  scorer.Tick();
  ASSERT_TRUE(scorer.IsFlagged(ServerId(5)));
  scorer.ClearEvents();

  // Three judged healthy windows clear the flag (clear_after_windows = 3).
  for (int w = 0; w < 3; ++w) {
    EXPECT_TRUE(scorer.IsFlagged(ServerId(5)));
    FeedWindow(&f.accountant, 6, /*bad_server=*/-1);
    scorer.Tick();
  }
  EXPECT_FALSE(scorer.IsFlagged(ServerId(5)));
  EXPECT_EQ(scorer.demoted_count(), 0);
  ASSERT_EQ(scorer.events().size(), 1u);
  EXPECT_EQ(scorer.events()[0].kind, HealthEventKind::kReplicaRecovered);
  EXPECT_EQ(scorer.events()[0].server, ServerId(5));
}

TEST(GrayHealthScorer, SilentFlaggedReplicaClearsOnlyAfterLongStreak) {
  ScorerFixture f;
  GrayHealthConfig config = TestHealthConfig();
  GrayHealthScorer scorer(&f.sim, &f.accountant, config);
  FeedWindow(&f.accountant, 6, 5);
  scorer.Tick();
  FeedWindow(&f.accountant, 6, 5);
  scorer.Tick();
  ASSERT_TRUE(scorer.IsFlagged(ServerId(5)));

  // Demotion starves server 5 of traffic: it is never judged again, so the short judged clear
  // cannot fire. The flag holds for silent_clear_windows windows, then drops (re-probe).
  for (int w = 0; w < config.silent_clear_windows - 1; ++w) {
    FeedWindow(&f.accountant, 5, /*bad_server=*/-1);  // servers 0..4 only
    scorer.Tick();
    EXPECT_TRUE(scorer.IsFlagged(ServerId(5))) << "cleared too early at silent window " << w;
  }
  FeedWindow(&f.accountant, 5, /*bad_server=*/-1);
  scorer.Tick();
  EXPECT_FALSE(scorer.IsFlagged(ServerId(5)));
}

TEST(GrayHealthScorer, AvailabilityGuardWithholdsMassDemotion) {
  ScorerFixture f;
  GrayHealthConfig config = TestHealthConfig();
  config.max_demoted_fraction = 0.25;  // 6 active replicas => demote at most 1
  GrayHealthScorer scorer(&f.sim, &f.accountant, config);

  // Two clear outliers among six active replicas (peer median stays 0, so both flag), but
  // demoting both exceeds max_demoted_fraction: flagging is recorded while the published
  // demotion view stays clear. (With a *majority* gray the median itself is sick and nothing
  // flags at all — that regime never reaches the guard.)
  auto feed_two_bad = [&]() {
    for (int s = 0; s < 6; ++s) {
      for (int i = 0; i < 20; ++i) {
        const bool bad = s >= 4 && i < 10;
        f.accountant.RecordAttempt(0, s, 0, 0, 1500,
                                   bad ? AttemptOutcome::kTimeout : AttemptOutcome::kOk);
      }
    }
  };
  feed_two_bad();
  scorer.Tick();
  feed_two_bad();
  scorer.Tick();
  EXPECT_EQ(scorer.flagged_count(), 2);
  EXPECT_EQ(scorer.demoted_count(), 0);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(scorer.gray_flags()[s], 0) << "server " << s;
  }
}

TEST(GrayHealthScorer, FlagsP99InflationOutlier) {
  ScorerFixture f;
  GrayHealthScorer scorer(&f.sim, &f.accountant, TestHealthConfig());
  // Server 3 completes everything — no timeouts — but 40x slower than its peers.
  auto feed_slow = [&]() {
    for (int s = 0; s < 6; ++s) {
      for (int i = 0; i < 20; ++i) {
        f.accountant.RecordAttempt(0, s, 0, 0, s == 3 ? 60000 : 1500, AttemptOutcome::kOk);
      }
    }
  };
  feed_slow();
  scorer.Tick();
  feed_slow();
  scorer.Tick();
  EXPECT_TRUE(scorer.IsFlagged(ServerId(3)));
  ASSERT_EQ(scorer.events().size(), 1u);
  EXPECT_EQ(scorer.events()[0].signal, HealthSignal::kP99Inflation);
}

TEST(GrayHealthScorer, FlagsDegradedLink) {
  ScorerFixture f;
  GrayHealthScorer scorer(&f.sim, &f.accountant, TestHealthConfig());
  // Four directed links carry traffic (>= min_peers); r0->r1 times out half its attempts.
  // Attempts are spread over distinct servers so no *replica* outlier forms alongside.
  auto feed_links = [&]() {
    const int pairs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    for (int p = 0; p < 4; ++p) {
      for (int i = 0; i < 20; ++i) {
        const bool bad = p == 1 && i < 10;
        f.accountant.RecordAttempt(0, /*server=*/i % 8, pairs[p][0], pairs[p][1], 1500,
                                   bad ? AttemptOutcome::kTimeout : AttemptOutcome::kOk);
      }
    }
  };
  feed_links();
  scorer.Tick();
  feed_links();
  scorer.Tick();
  bool link_flagged = false;
  for (const HealthEvent& event : scorer.events()) {
    if (event.kind == HealthEventKind::kLinkGray) {
      EXPECT_EQ(event.link_from, 0);
      EXPECT_EQ(event.link_to, 1);
      link_flagged = true;
    }
  }
  EXPECT_TRUE(link_flagged);
}

// -- Router demotion ---------------------------------------------------------------------------

struct LoopbackServer : public ShardServerApi {
  ServerId self;
  Status AddShard(ShardId, ReplicaRole) override { return Status::Ok(); }
  Status DropShard(ShardId) override { return Status::Ok(); }
  Status ChangeRole(ShardId, ReplicaRole, ReplicaRole) override { return Status::Ok(); }
  Status PrepareAddShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  Status PrepareDropShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  void ReportLoads(ShardLoadReport& report) override { report.entries.clear(); }
  void HandleRequest(const Request&, ReplyCallback done) override {
    Reply reply;
    reply.served_by = self;
    done(reply);
  }
};

ShardMap MakeMap(AppId app, int64_t version, int shards, int replicas, int regions,
                 int servers) {
  ShardMap map;
  map.app = app;
  map.version = version;
  map.entries.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ShardMapEntry& entry = map.entries[static_cast<size_t>(s)];
    entry.shard = ShardId(s);
    for (int r = 0; r < replicas; ++r) {
      ShardMapReplica replica;
      replica.server = ServerId((s + r * 7919) % servers);
      replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
      replica.region = RegionId(replica.server.value % regions);
      entry.replicas.push_back(replica);
    }
  }
  return map;
}

// A small routing fixture: 12 servers across 3 equal-latency regions (every replica sits in
// the first preference tier, so the rotation spreads reads over all of them), 64 shards.
struct RoutingFixture {
  Simulator sim;
  Network net{&sim, LatencyModel(3, Millis(5), Millis(5)), 21};
  ServiceDiscovery discovery{&sim, Millis(1), Millis(2), 7};
  ServerRegistry registry;
  std::vector<LoopbackServer> servers;
  AppSpec spec;

  static constexpr int kServers = 12;
  static constexpr int kShards = 64;

  RoutingFixture() : servers(kServers) {
    for (int i = 0; i < kServers; ++i) {
      servers[static_cast<size_t>(i)].self = ServerId(i);
      ServerHandle handle;
      handle.id = ServerId(i);
      handle.container = ContainerId(i);
      handle.app = AppId(1);
      handle.region = RegionId(i % 3);
      handle.api = &servers[static_cast<size_t>(i)];
      registry.Register(handle);
    }
    spec = MakeUniformAppSpec(AppId(1), "demote", kShards, ReplicationStrategy::kSecondaryOnly,
                              3);
    discovery.Publish(MakeMap(AppId(1), 1, kShards, 3, 3, kServers));
  }

  std::vector<int32_t> Picks(ServiceRouter* router, int n) {
    std::vector<int32_t> picks;
    Request request;
    request.app = AppId(1);
    request.type = RequestType::kRead;
    request.client_region = RegionId(0);
    for (int i = 0; i < n; ++i) {
      request.shard = ShardId(i % kShards);
      picks.push_back(router->PickTargetForBench(request, 1, ServerId()).value);
    }
    return picks;
  }
};

TEST(RouterDemotion, EmptyViewKeepsPickStreamBitIdentical) {
  RoutingFixture f;
  ServiceRouter plain(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                      RouterConfig{}, 11);
  ServiceRouter viewed(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                       RouterConfig{}, 11);
  std::vector<uint8_t> flags(RoutingFixture::kServers, 0);
  viewed.SetDemotionView(flags.data(), static_cast<int32_t>(flags.size()));
  f.sim.RunFor(Millis(50));  // both routers apply the published map

  // The determinism contract from SetDemotionView: an attached all-healthy view consumes the
  // rotation RNG identically, so the two pick streams match draw for draw.
  EXPECT_EQ(f.Picks(&plain, 2000), f.Picks(&viewed, 2000));
}

TEST(RouterDemotion, SteersAwayFromDemotedReplicaWhileHealthyRemain) {
  RoutingFixture f;
  ServiceRouter router(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                       RouterConfig{}, 11);
  std::vector<uint8_t> flags(RoutingFixture::kServers, 0);
  flags[4] = 1;
  router.SetDemotionView(flags.data(), static_cast<int32_t>(flags.size()));
  f.sim.RunFor(Millis(50));

  std::vector<int32_t> picks = f.Picks(&router, 3000);
  int others = 0;
  for (int32_t pick : picks) {
    EXPECT_NE(pick, 4);
    if (pick >= 0) ++others;
  }
  EXPECT_EQ(others, 3000);  // every pick still found a healthy replica
}

TEST(RouterDemotion, AllDemotedFallsBackToNormalSelection) {
  RoutingFixture f;
  ServiceRouter router(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                       RouterConfig{}, 11);
  std::vector<uint8_t> flags(RoutingFixture::kServers, 1);  // everything gray
  router.SetDemotionView(flags.data(), static_cast<int32_t>(flags.size()));
  f.sim.RunFor(Millis(50));

  // Availability never regresses: with no healthy candidate the router picks as if the view
  // were absent rather than returning nothing.
  ServiceRouter plain(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                      RouterConfig{}, 11);
  f.sim.RunFor(Millis(50));
  EXPECT_EQ(f.Picks(&router, 1000), f.Picks(&plain, 1000));
}

TEST(RouterDemotion, RetriesWalkPastDemotedReplicas) {
  RoutingFixture f;
  ServiceRouter router(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                       RouterConfig{}, 11);
  std::vector<uint8_t> flags(RoutingFixture::kServers, 0);
  flags[4] = 1;
  router.SetDemotionView(flags.data(), static_cast<int32_t>(flags.size()));
  f.sim.RunFor(Millis(50));

  // Shard 4's replicas are servers 4, 3 and 2 (s, s+7919, s+15838 mod 12); with server 4
  // demoted, attempt 1 lands on one of the healthy pair and the retry — excluding the failed
  // server — must land on the other, never on the demoted one.
  Request request;
  request.app = AppId(1);
  request.type = RequestType::kRead;
  request.client_region = RegionId(0);
  request.shard = ShardId(4);
  for (int trial = 0; trial < 50; ++trial) {
    ServerId first = router.PickTargetForBench(request, 1, ServerId());
    ServerId second = router.PickTargetForBench(request, 2, first);
    EXPECT_NE(first.value, 4);
    EXPECT_NE(second.value, 4);
    EXPECT_NE(first, second);
  }
}

// -- Closed loop: fault -> RED windows -> scorer -> demotion -----------------------------------

TEST(GrayHealthClosedLoop, DegradedLinkGetsDetectedAndDemoted) {
  RoutingFixture f;
  RequestAccountant accountant;
  RequestAccountingOptions options;
  options.regions = 3;
  options.max_servers = RoutingFixture::kServers;
  accountant.Configure(options);

  GrayHealthConfig config;
  config.window = Seconds(1);
  config.min_attempts = 8;
  config.timeout_ratio_factor = 3.0;
  config.timeout_ratio_floor = 0.02;
  config.flag_after_windows = 2;
  config.silent_clear_windows = 120;
  GrayHealthScorer scorer(&f.sim, &accountant, config);
  scorer.Start();

  RouterConfig router_config;
  router_config.request_timeout = Millis(200);
  ServiceRouter router(&f.sim, &f.net, &f.discovery, &f.registry, &f.spec, RegionId(0),
                       router_config, 11);
  router.SetAccounting(&accountant, 0);
  router.SetDemotionView(scorer.gray_flags(), scorer.gray_flags_size());

  uint64_t next_key = 0;
  f.sim.SchedulePeriodic(Millis(2), Millis(2), [&]() {
    uint64_t key = next_key++ * 0x9E3779B97F4A7C15ULL;
    router.Route(key, RequestType::kRead, [](const RequestOutcome&) {});
  });

  f.sim.RunUntil(Seconds(10));
  EXPECT_EQ(scorer.flagged_count(), 0);  // healthy warmup: nothing flagged
  EXPECT_GT(accountant.AppRegionTotals(0, 0).requests, 0u);

  LinkQuality quality;
  quality.loss_probability = 0.2;
  quality.latency_multiplier = 8.0;
  f.net.SetLinkQuality(RegionId(0), RegionId(1), quality);
  f.sim.RunUntil(Seconds(30));

  // All four r1 replicas (servers 1, 4, 7, 10) end up flagged and demoted; the healthy
  // regions stay clear.
  EXPECT_EQ(scorer.flagged_count(), 4);
  EXPECT_EQ(scorer.demoted_count(), 4);
  for (int s = 0; s < RoutingFixture::kServers; ++s) {
    EXPECT_EQ(scorer.IsFlagged(ServerId(s)), s % 3 == 1) << "server " << s;
  }
  bool replica_gray = false;
  for (const HealthEvent& event : scorer.events()) {
    if (event.kind == HealthEventKind::kReplicaGray) replica_gray = true;
  }
  EXPECT_TRUE(replica_gray);
}

}  // namespace
}  // namespace shardman
