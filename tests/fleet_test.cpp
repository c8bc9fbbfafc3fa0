// Fleet workloads: N tenants on one event loop contending on shared
// WiFi/LTE links. The contracts under test: campaign output is bitwise
// --jobs-invariant, fair queueing equalizes tenants that FIFO starves,
// the cross-session aggregates are consistent with the per-session rows,
// the session mix cycles deterministically, and fleet repro bundles
// round-trip and replay to the same outcome through the one repro path.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/fleet.h"
#include "exp/repro.h"
#include "exp/spec.h"
#include "fault/fault.h"
#include "runner/campaign.h"

namespace mpdash {
namespace {

// Small contended fleet: aggregate capacity well below N × top bitrate so
// the queue discipline decides who gets what.
FleetConfig small_fleet(int sessions, int chunks = 8) {
  FleetConfig cfg;
  cfg.sessions = sessions;
  cfg.seed = 5;
  cfg.chunk_count = chunks;
  return cfg;
}

// --- determinism ---------------------------------------------------------

TEST(Fleet, RepeatedRunsFingerprintIdentically) {
  const FleetConfig cfg = small_fleet(3);
  const FleetResult a = run_fleet(cfg);
  const FleetResult b = run_fleet(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(fleet_sessions_csv(a), fleet_sessions_csv(b));
}

TEST(Fleet, CampaignOutputIsJobsInvariant) {
  FleetCampaignConfig cfg;
  cfg.fleet = small_fleet(4, 6);
  cfg.seed_count = 3;
  cfg.base_seed = 9;
  cfg.progress = nullptr;

  cfg.jobs = 1;
  const FleetCampaignResult serial = run_fleet_campaign(cfg);
  cfg.jobs = 8;
  const FleetCampaignResult parallel = run_fleet_campaign(cfg);

  ASSERT_EQ(serial.runs.size(), 3u);
  EXPECT_EQ(serial.digest(), parallel.digest());
  // The CSV the CI lane compares must be byte-identical, header included.
  EXPECT_EQ(serial.sessions_csv(), parallel.sessions_csv());
  EXPECT_EQ(serial.sessions_csv().rfind(kFleetCsvHeader, 0), 0u);
}

TEST(Fleet, DifferentSeedsDiverge) {
  FleetConfig cfg = small_fleet(2);
  const std::string a = run_fleet(cfg).fingerprint();
  cfg.seed = 6;
  EXPECT_NE(run_fleet(cfg).fingerprint(), a);
}

// --- scale ----------------------------------------------------------------

TEST(Fleet, OneToSixtyFourTenantsAllFinishClean) {
  // The default 20 + 12 Mbps bottleneck carries 64 six-chunk tenants: every
  // size finishes ok with every tenant done (N = 16 is the golden fleet
  // fixture's shape).
  for (const int n : {1, 4, 64}) {
    FleetConfig cfg;
    cfg.sessions = n;
    cfg.seed = 7;
    cfg.chunk_count = 6;
    const FleetResult r = run_fleet(cfg);
    EXPECT_TRUE(r.ok()) << "N=" << n << ": " << to_string(r.outcome);
    EXPECT_EQ(r.completed, n);
    for (const std::string& v : r.violations) ADD_FAILURE() << v;
  }
}

// --- fair queueing vs FIFO on the shared bottleneck ----------------------

TEST(Fleet, FairQueueingEqualizesTenantsThatFifoSkews) {
  // Two tenants on one tight AP (aggregate far below 2× top bitrate).
  // Under FIFO the first joiner's standing queue crowds out the second;
  // DRR gives each flow its own queue and alternating service, so steady
  // bitrates come out (near-)equal.
  FleetConfig cfg = small_fleet(2, 12);
  cfg.wifi_mbps = 3.0;
  cfg.lte_mbps = 2.0;
  cfg.wifi_up_mbps = 2.0;
  cfg.lte_up_mbps = 2.0;
  cfg.queue_capacity = 96 * 1000;

  cfg.discipline = QueueDiscipline::kFairQueue;
  const FleetResult fq = run_fleet(cfg);
  cfg.discipline = QueueDiscipline::kFifo;
  const FleetResult fifo = run_fleet(cfg);

  ASSERT_EQ(fq.sessions.size(), 2u);
  ASSERT_EQ(fifo.sessions.size(), 2u);
  const auto steady = [](const FleetResult& r, int i) {
    return r.sessions[i].result.steady_avg_bitrate_mbps;
  };
  // FQ: both tenants land on the same steady rung.
  EXPECT_GT(steady(fq, 0), 0.0);
  EXPECT_GT(steady(fq, 1), 0.0);
  EXPECT_NEAR(steady(fq, 0), steady(fq, 1), 0.25);
  // And the fleet-level Jain index reflects it.
  EXPECT_GE(fq.jain_fairness, 0.99);
  EXPECT_GE(fq.jain_fairness, fifo.jain_fairness);
}

// --- aggregates ----------------------------------------------------------

TEST(Fleet, AggregatesAreConsistentWithPerSessionRows) {
  const FleetResult r = run_fleet(small_fleet(4));
  ASSERT_EQ(r.sessions.size(), 4u);

  int completed = 0;
  double qoe_sum = 0.0;
  for (const FleetSessionResult& s : r.sessions) {
    completed += s.result.completed ? 1 : 0;
    qoe_sum += s.qoe;
    EXPECT_EQ(s.qoe, s.result.steady_avg_bitrate_mbps -
                         kFleetStallPenalty * s.result.stall_s);
    EXPECT_EQ(s.seed, derive_stream_seed(
                          5, "session/" + std::to_string(s.session)));
  }
  EXPECT_EQ(r.completed, completed);
  EXPECT_NEAR(r.qoe_mean, qoe_sum / 4.0, 1e-12);
  EXPECT_GE(r.jain_fairness, 0.0);
  EXPECT_LE(r.jain_fairness, 1.0 + 1e-12);
  EXPECT_GE(r.cell_fraction, 0.0);
  EXPECT_LE(r.cell_fraction, 1.0);
  EXPECT_GT(r.wifi_bytes + r.cell_bytes, 0);
  // Joins are staggered in session order.
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.sessions[i].join_s, static_cast<double>(i));
  }
}

TEST(Fleet, MixCyclesAcrossTenants) {
  FleetConfig cfg = small_fleet(4, 6);
  SessionSpec a;  // mpdash-duration / festive defaults
  SessionSpec b;
  b.scheme = Scheme::kBaseline;
  b.adaptation = "bba";
  cfg.mix = {a, b};
  const FleetResult r = run_fleet(cfg);
  ASSERT_EQ(r.sessions.size(), 4u);
  EXPECT_EQ(r.sessions[0].scheme, a.scheme);
  EXPECT_EQ(r.sessions[1].scheme, Scheme::kBaseline);
  EXPECT_EQ(r.sessions[1].adaptation, "bba");
  EXPECT_EQ(r.sessions[2].scheme, a.scheme);
  EXPECT_EQ(r.sessions[3].scheme, Scheme::kBaseline);
}

// --- chaos on the shared links -------------------------------------------

TEST(Fleet, SharedFaultPlanPerturbsTheWholeFleet) {
  // A WiFi blackout squarely inside the streaming window: every tenant
  // shares that AP, so the run must stay deterministic and the fault
  // windows must open and close (quiescence is a fleet invariant).
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(6.0);
  e.duration = seconds(2.0);
  e.path_id = 0;
  FaultPlan plan;
  plan.events.push_back(e);

  FleetConfig cfg = small_fleet(3, 10);
  cfg.faults = &plan;
  const FleetResult a = run_fleet(cfg);
  const FleetResult b = run_fleet(cfg);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.faults_started, 1);
  EXPECT_EQ(a.faults_skipped, 0);
}

TEST(Fleet, ServerFaultsReachEveryTenantsOrigin) {
  // One origin stall from 8 s to 18 s: the plan's server hooks fan out to
  // every tenant's origin, so every tenant stalls, where the same fleet
  // without faults plays clean.
  FaultEvent e;
  e.kind = FaultKind::kServerStall;
  e.at = kTimeZero + seconds(8.0);
  e.duration = seconds(10.0);
  FaultPlan plan;
  plan.events.push_back(e);

  FleetConfig cfg = small_fleet(3, 10);
  const FleetResult calm = run_fleet(cfg);
  cfg.faults = &plan;
  const FleetResult stalled = run_fleet(cfg);
  ASSERT_EQ(calm.sessions.size(), 3u);
  ASSERT_EQ(stalled.sessions.size(), 3u);
  EXPECT_EQ(stalled.faults_started, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(calm.sessions[i].result.stall_s, 0.0) << "tenant " << i;
    EXPECT_GT(stalled.sessions[i].result.stall_s, 0.0) << "tenant " << i;
  }
}

TEST(Fleet, ChaosCampaignIsJobsInvariant) {
  FleetCampaignConfig cfg;
  cfg.fleet = small_fleet(3, 6);
  cfg.seed_count = 2;
  cfg.base_seed = 21;
  cfg.chaos = true;
  cfg.plan.num_events = 3;
  cfg.progress = nullptr;

  cfg.jobs = 1;
  const std::string serial = run_fleet_campaign(cfg).sessions_csv();
  cfg.jobs = 4;
  EXPECT_EQ(run_fleet_campaign(cfg).sessions_csv(), serial);
}

// --- fleet repro bundles -------------------------------------------------

ReproBundle sample_fleet_bundle() {
  ReproBundle b;
  b.seed = 33;
  b.fleet = FleetConfig{};
  b.fleet->sessions = 2;
  b.fleet->chunk_count = 6;
  FaultEvent e;
  e.kind = FaultKind::kRateCollapse;
  e.at = kTimeZero + seconds(5.0);
  e.duration = seconds(3.0);
  e.path_id = 0;
  e.value = 0.25;
  b.plan.events.push_back(e);
  b.outcome = RunOutcome::kViolation;
  b.expected_violations = {"session 0: fake violation"};
  return b;
}

TEST(FleetReproBundle, JsonRoundTripsBitwise) {
  const ReproBundle b = sample_fleet_bundle();
  const std::string text = repro_bundle_to_json(b);
  EXPECT_NE(text.find("\"kind\": \"mpdash-fleet-repro\""), std::string::npos);
  ReproBundle parsed;
  std::string err;
  ASSERT_TRUE(repro_bundle_from_json(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.seed, b.seed);
  ASSERT_TRUE(parsed.fleet.has_value());
  EXPECT_EQ(*parsed.fleet, *b.fleet);
  EXPECT_EQ(parsed.outcome, b.outcome);
  EXPECT_EQ(parsed.expected_violations, b.expected_violations);
  EXPECT_EQ(repro_bundle_to_json(parsed), text);

  EXPECT_FALSE(repro_bundle_from_json("{}", &parsed, &err));
  EXPECT_FALSE(repro_bundle_from_json("not json", &parsed, &err));
}

TEST(FleetReproBundle, RejectsSchemaAndCountsOutOfRange) {
  const std::string text = repro_bundle_to_json(sample_fleet_bundle());
  auto parse_with = [&text](const std::string& needle,
                            const std::string& replacement) {
    std::string bad = text;
    bad.replace(bad.find(needle), needle.size(), replacement);
    ReproBundle parsed;
    std::string err;
    EXPECT_FALSE(repro_bundle_from_json(bad, &parsed, &err)) << replacement;
    return err;
  };
  // Fleet bundles have one layout version.
  EXPECT_EQ(parse_with("\"schema\": 1", "\"schema\": 2"),
            "bundle: unsupported schema 2");
  // Bundles are input from outside the program: a fleet needs a tenant
  // and a chunk, and a count must fit an int rather than wrap into one.
  for (const char* sessions : {"0", "4294967298"}) {
    EXPECT_NE(parse_with("\"sessions\": 2",
                         std::string("\"sessions\": ") + sessions)
                  .find("sessions"),
              std::string::npos);
  }
  EXPECT_NE(parse_with("{\"sessions\": 2, \"chunk_count\": 6",
                       "{\"sessions\": 2, \"chunk_count\": 0")
                .find("chunk_count"),
            std::string::npos);
  // A fractional integer is refused, not truncated into another network.
  EXPECT_EQ(parse_with("\"fq_quantum\": 1500", "\"fq_quantum\": 1.5"),
            "fleet config: missing or bad \"fq_quantum\"");
  // Network fields out of range would replay some other network: each
  // one-field edit is refused, naming the field.
  const struct {
    const char* needle;
    const char* replacement;
    const char* want;
  } cases[] = {
      {"\"wifi_mbps\": 20", "\"wifi_mbps\": 0", "\"wifi_mbps\" must be > 0"},
      {"\"lte_up_mbps\": 8", "\"lte_up_mbps\": -1",
       "\"lte_up_mbps\" must be > 0"},
      {"\"wifi_rtt_ns\": 50000000", "\"wifi_rtt_ns\": -100000000",
       "\"wifi_rtt_ns\" must be >= 0"},
      {"\"queue_capacity\": 384000", "\"queue_capacity\": -5",
       "\"queue_capacity\" must be >= 1"},
      {"\"fq_quantum\": 1500", "\"fq_quantum\": 0",
       "\"fq_quantum\" must be >= 1"},
      {"\"join_stagger_ns\": 1000000000",
       "\"join_stagger_ns\": -1000000000",
       "\"join_stagger_ns\" must be >= 0"},
      {"\"time_limit_ns\": 1800000000000", "\"time_limit_ns\": -5",
       "\"time_limit_ns\" must be > 0"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_with(c.needle, c.replacement),
              std::string("bundle: ") + c.want);
  }
}

TEST(FleetReproBundle, FileRoundTripAndPath) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mpdash_fleet_repro_bundle_test")
          .string();
  std::filesystem::remove_all(dir);
  const ReproBundle b = sample_fleet_bundle();
  const std::string path = repro_bundle_path(dir, b.seed, /*fleet=*/true);
  EXPECT_NE(path.find("fleet_repro_33.json"), std::string::npos);
  std::string err;
  ASSERT_TRUE(write_repro_bundle(b, path, &err)) << err;
  ReproBundle loaded;
  ASSERT_TRUE(load_repro_bundle(path, &loaded, &err)) << err;
  EXPECT_EQ(repro_bundle_to_json(loaded), repro_bundle_to_json(b));
  std::filesystem::remove_all(dir);
}

TEST(FleetReproBundle, ReplayReproducesTheRecordedRun) {
  // Record a real run (whatever its outcome), snapshot it as a bundle,
  // and check the replay path reports a match against itself.
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(4.0);
  e.duration = seconds(2.0);
  e.path_id = 0;
  FaultPlan plan;
  plan.events.push_back(e);

  FleetConfig probe = small_fleet(2, 8);
  probe.seed = 13;
  probe.faults = &plan;
  const FleetResult run = run_fleet(probe);
  // The campaign's snapshot: the bundle's plan is authoritative.
  const ReproBundle b = make_repro_bundle(probe, run, plan);
  EXPECT_EQ(b.seed, 13u);
  EXPECT_EQ(b.fleet->faults, nullptr);

  const ReplayResult replay = replay_repro_bundle(b);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches.front());
  EXPECT_EQ(replay.run.fingerprint, run.fingerprint());
}

TEST(FleetReproBundle, CampaignEmitsBundlesTheReproPathReplays) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mpdash_fleet_bundles";
  std::filesystem::remove_all(dir);
  FleetCampaignConfig cfg;
  cfg.fleet = small_fleet(2, 6);
  // A fleet horizon shorter than the content: every run violates.
  cfg.fleet.time_limit = seconds(5.0);
  cfg.seed_count = 2;
  cfg.progress = nullptr;
  cfg.bundle_dir = dir.string();
  const FleetCampaignResult res = run_fleet_campaign(cfg);
  ASSERT_EQ(res.outcome_counts().violation, 2);
  for (const FleetResult& r : res.runs) {
    ReproBundle b;
    std::string err;
    const std::string path = repro_bundle_path(dir.string(), r.seed, true);
    ASSERT_TRUE(load_repro_bundle(path, &b, &err)) << path << ": " << err;
    ASSERT_TRUE(b.fleet.has_value());
    EXPECT_EQ(b.expected_violations, r.violations);
    EXPECT_TRUE(replay_repro_bundle(b).matches) << path;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mpdash
