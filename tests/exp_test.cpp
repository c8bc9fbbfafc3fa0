#include <gtest/gtest.h>

#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault.h"
#include "trace/locations.h"

namespace mpdash {
namespace {

TEST(Scenario, ConstantScenarioWiring) {
  Scenario sc(constant_scenario(DataRate::mbps(5.0), DataRate::mbps(2.0)));
  ASSERT_EQ(sc.paths().size(), 2u);
  EXPECT_EQ(sc.wifi().id(), kWifiPathId);
  ASSERT_NE(sc.cellular(), nullptr);
  EXPECT_EQ(sc.cellular()->id(), kCellularPathId);
  EXPECT_EQ(sc.wifi().description().kind, InterfaceKind::kWifi);
  EXPECT_EQ(sc.cellular()->description().kind, InterfaceKind::kCellular);
  // Prefer-WiFi policy applied by default.
  EXPECT_LT(sc.wifi().description().unit_cost,
            sc.cellular()->description().unit_cost);
  EXPECT_EQ(sc.wifi_bytes(), 0);
  EXPECT_EQ(sc.cellular_bytes(), 0);
}

TEST(Scenario, WifiOnlyOmitsCellular) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(5.0),
                                         DataRate::mbps(2.0));
  cfg.wifi_only = true;
  Scenario sc(cfg);
  EXPECT_EQ(sc.paths().size(), 1u);
  EXPECT_EQ(sc.cellular(), nullptr);
  EXPECT_EQ(sc.cellular_bytes(), 0);
}

TEST(Scenario, RttConfigurationReachesPaths) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(5.0),
                                         DataRate::mbps(2.0));
  cfg.wifi_rtt = milliseconds(14);
  cfg.lte_rtt = milliseconds(52);
  Scenario sc(cfg);
  EXPECT_EQ(sc.wifi().base_rtt(), milliseconds(14));
  EXPECT_EQ(sc.cellular()->base_rtt(), milliseconds(52));
}

TEST(Session, SchemeNamesRoundTrip) {
  EXPECT_STREQ(to_string(Scheme::kWifiOnly), "wifi-only");
  EXPECT_STREQ(to_string(Scheme::kBaseline), "baseline");
  EXPECT_STREQ(to_string(Scheme::kMpDashDuration), "mpdash-duration");
  EXPECT_STREQ(to_string(Scheme::kMpDashRate), "mpdash-rate");
  EXPECT_FALSE(scheme_uses_mpdash(Scheme::kBaseline));
  EXPECT_TRUE(scheme_uses_mpdash(Scheme::kMpDashRate));
  EXPECT_TRUE(scheme_uses_mpdash(Scheme::kMpDashDuration));
}

Video tiny_video() {
  return Video("Tiny", seconds(4.0), 10,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 3);
}

TEST(Session, ResultAccountingConsistency) {
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.chunks, 10);
  EXPECT_EQ(static_cast<int>(res.chunk_log.size()), res.chunks);
  EXPECT_GT(res.session_s, 40.0);  // at least the content duration
  EXPECT_NEAR(res.cell_fraction,
              static_cast<double>(res.cell_bytes) /
                  static_cast<double>(res.cell_bytes + res.wifi_bytes),
              1e-9);
  EXPECT_GT(res.energy_j(), 0.0);
  // Delivered bytes at least the sum of chunk sizes.
  Bytes media = 0;
  for (const auto& c : res.chunk_log) media += c.bytes;
  EXPECT_GE(res.wifi_bytes + res.cell_bytes, media);
}

TEST(Session, TimeLimitProducesIncompleteResult) {
  Scenario sc(constant_scenario(DataRate::kbps(100.0), DataRate::kbps(80.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.time_limit = seconds(20.0);  // nowhere near enough at 180 kbps
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  EXPECT_FALSE(res.completed);
  EXPECT_LE(res.session_s, 20.5);
}

TEST(Session, DownloadWarmupDoesNotCountWarmupBytes) {
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(8.0)));
  DownloadConfig cfg;
  cfg.size = megabytes(2);
  cfg.warmup = true;
  cfg.use_mpdash = false;
  const DownloadResult res = run_download_session(sc, cfg);
  ASSERT_TRUE(res.completed);
  const Bytes total = res.wifi_bytes + res.cell_bytes;
  // Measured bytes cover the 2 MB transfer plus protocol overhead, not
  // the 500 KB warmup.
  EXPECT_GT(total, megabytes(2));
  EXPECT_LT(total, megabytes(2) + kilobytes(300));
}

TEST(Session, DownloadDeadlineMissReported) {
  Scenario sc(constant_scenario(DataRate::mbps(1.0), DataRate::mbps(0.5)));
  DownloadConfig cfg;
  cfg.size = megabytes(5);
  cfg.deadline = seconds(5.0);  // impossible at 1.5 Mbps aggregate
  const DownloadResult res = run_download_session(sc, cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_TRUE(res.deadline_missed);
}

TEST(Session, LocationScenarioStreamsEndToEnd) {
  // Smoke the field-study path: a strong-WiFi location plays cleanly.
  const LocationProfile* lib = nullptr;
  for (const auto& l : field_study_locations()) {
    if (l.name == "Library") lib = &l;
  }
  ASSERT_NE(lib, nullptr);
  ScenarioConfig net;
  net.wifi_down = lib->wifi_trace(seconds(200.0));
  net.lte_down = lib->lte_trace(seconds(200.0));
  net.wifi_rtt = lib->wifi_rtt;
  net.lte_rtt = lib->lte_rtt;
  Scenario sc(net);
  SessionConfig cfg;
  cfg.adaptation = "festive";
  cfg.scheme = Scheme::kMpDashRate;
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stalls, 0);
  // 17.8 Mbps WiFi: beyond the vanilla startup phase, cellular stays
  // untouched; a 10-chunk clip is mostly startup, so allow that much.
  EXPECT_LT(res.cell_bytes, megabytes(2));
}

// --- the run contract ------------------------------------------------------

TEST(Session, FaultPlanCoversPathsTheSessionLeavesUnused) {
  // A wifi-only connection never touches LTE, but the plan attaches to
  // every path of the scenario: the LTE blackout opens and closes instead
  // of being skipped as untargetable.
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(5.0);
  e.duration = seconds(2.0);
  e.path_id = kCellularPathId;
  FaultPlan plan;
  plan.events.push_back(e);
  SessionConfig cfg;
  cfg.scheme = Scheme::kWifiOnly;
  cfg.adaptation = "gpac";
  SessionEnv env;
  env.faults = &plan;
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg, env);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.faults_started, 1);
  EXPECT_EQ(res.faults_skipped, 0);
  EXPECT_TRUE(res.faults_quiescent);
  EXPECT_EQ(res.cell_bytes, 0);
}

TEST(StreamingRun, BuildingTheStacksSchedulesNothing) {
  // The engine arms the fault plan after every tenant's stack, which keeps
  // the plan's events first in scheduling order only because no stack
  // constructor schedules an event. Pin that for every scheme.
  for (const Scheme scheme : {Scheme::kWifiOnly, Scheme::kBaseline,
                              Scheme::kMpDashDuration, Scheme::kMpDashRate}) {
    Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
    RunTenant tenant;
    tenant.config.scheme = scheme;
    const StreamingRun run(sc, tiny_video(), {tenant, tenant}, nullptr,
                           nullptr);
    EXPECT_FALSE(sc.loop().has_pending()) << to_string(scheme);
  }
}

TEST(Session, WatchdogTripDetachesTheTraceCollector) {
  // record_trace adds a collector to the caller's context for the run.
  // A watchdog trip unwinds the run; the collector must not stay behind
  // as a dangling sink for the caller's next emit.
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.record_trace = true;
  cfg.watchdog.max_sim_events = 5000;
  cfg.watchdog.poll_interval = 1;
  Telemetry telemetry;
  SessionEnv env;
  env.telemetry = &telemetry;
  EXPECT_THROW(run_streaming_session(sc, tiny_video(), cfg, env),
               WatchdogTripped);
  EXPECT_FALSE(telemetry.tracing());
  TraceRecord r;
  telemetry.emit(r);  // reaches no sink, destroyed or otherwise
}

class SchedulerNames : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerNames, BothMptcpSchedulersStreamCleanly) {
  Scenario sc(constant_scenario(DataRate::mbps(4.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.mptcp_scheduler = GetParam();
  const SessionResult res = run_streaming_session(sc, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.stalls, 0);
}

INSTANTIATE_TEST_SUITE_P(Names, SchedulerNames,
                         ::testing::Values("minrtt", "roundrobin"));

}  // namespace
}  // namespace mpdash
