#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "dash/video.h"
#include "exp/field_study.h"
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

TEST(Session, MetricsWithoutATelemetryContextThrow) {
  // The timeline samples the context's registry; there is none to sample.
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  MetricsTimeline timeline;
  SessionEnv env;
  env.metrics = &timeline;
  EXPECT_THROW(run_streaming_session(sc, tiny_video(), SessionConfig{}, env),
               std::invalid_argument);
  EXPECT_FALSE(sc.loop().has_pending());
}

TEST(Session, WatchdogTripLeavesTheLoopSafeToRun) {
  // A watchdog trip unwinds the run; the scenario's loop and links outlive
  // it. What the unwound run left queued is safe to run: the energy probe
  // and the snapshotter cancelled their samples, and the packets still
  // propagating reach no endpoint (the connection cleared its delivery
  // handlers), though their links still count them. The context is
  // declared before the scenario, which stays wired to it.
  Telemetry telemetry;
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  SessionConfig cfg;
  cfg.adaptation = "gpac";
  cfg.watchdog.max_sim_events = 5000;
  cfg.watchdog.poll_interval = 1;
  MetricsTimeline timeline;
  SessionEnv env;
  env.telemetry = &telemetry;
  env.metrics = &timeline;
  EXPECT_THROW(run_streaming_session(sc, tiny_video(), cfg, env),
               WatchdogTripped);
  const std::size_t samples = timeline.size();
  auto delivered = [&sc] {
    std::size_t n = 0;
    for (NetPath* p : sc.paths()) {
      n += p->downlink().delivered_packets() + p->uplink().delivered_packets();
    }
    return n;
  };
  const std::size_t before = delivered();
  sc.loop().run();
  EXPECT_GT(delivered(), before);
  EXPECT_FALSE(sc.loop().has_pending());
  EXPECT_EQ(timeline.size(), samples);

  const std::size_t executed = sc.loop().executed_events();
  bool ran = false;
  sc.loop().schedule_in(kDurationZero, [&ran] { ran = true; });
  sc.loop().run_until(sc.loop().now());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sc.loop().executed_events(), executed + 1);
  Packet p;
  p.kind = PacketKind::kData;
  p.wire_size = 1500;
  const std::size_t wifi_delivered = sc.wifi().downlink().delivered_packets();
  sc.wifi().downlink().send(p);
  sc.loop().run();
  EXPECT_EQ(sc.wifi().downlink().delivered_packets(), wifi_delivered + 1);
}

TEST(StreamingRun, WatchdogTripBeforeALateJoinLeavesNoJoinBehind) {
  // The second tenant would join after the trip. Its join event holds its
  // player, which dies with the run, so the event must die with it too.
  Scenario sc(constant_scenario(DataRate::mbps(8.0), DataRate::mbps(6.0)));
  RunTenant first;
  first.config.adaptation = "gpac";
  RunTenant late = first;
  late.join = TimePoint(seconds(30.0));
  WatchdogConfig watchdog;
  watchdog.max_sim_events = 5000;
  watchdog.poll_interval = 1;
  {
    StreamingRun run(sc, tiny_video(), {first, late}, nullptr, nullptr);
    EXPECT_THROW(run.run(seconds(600.0), watchdog), WatchdogTripped);
    EXPECT_LT(sc.loop().now(), late.join);
  }
  sc.loop().run();
  EXPECT_LT(sc.loop().now(), late.join);
  EXPECT_FALSE(sc.loop().has_pending());
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

// --- field study ----------------------------------------------------------

// Two locations at opposite ends of Table 5 (weakest and strongest WiFi),
// FESTIVE and BBA, baseline + rate + duration: 12 cells of a 40 s clip.
FieldStudyConfig small_field_study() {
  FieldStudyConfig cfg;
  const std::vector<LocationProfile> table5 = table5_locations();
  cfg.locations = {table5.front(), table5.back()};
  return cfg;
}

const Scheme kStudySchemes[] = {Scheme::kBaseline, Scheme::kMpDashRate,
                                Scheme::kMpDashDuration};

// Every SessionResult field a cell's consumers read, doubles exact.
std::string summary(const SessionResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "done=%d s=%.17g wifi=%lld cell=%lld frac=%.17g stalls=%d "
                "stall_s=%.17g sw=%d chunks=%d avg=%.17g steady=%.17g "
                "miss=%d engaged=%d ew=%.17g el=%.17g",
                r.completed, r.session_s, static_cast<long long>(r.wifi_bytes),
                static_cast<long long>(r.cell_bytes), r.cell_fraction,
                r.stalls, r.stall_s, r.switches, r.chunks, r.avg_bitrate_mbps,
                r.steady_avg_bitrate_mbps, r.deadline_misses,
                r.chunks_engaged, r.wifi_energy_j, r.lte_energy_j);
  std::string out = buf;
  for (const ChunkRecord& c : r.chunk_log) {
    out += " " + std::to_string(c.level) + ":" + std::to_string(c.bytes) +
           "@" + std::to_string(c.completed.count());
  }
  return out;
}

TEST(FieldStudy, CellsMatchDirectSessionsInAddOrder) {
  const FieldStudyConfig cfg = small_field_study();
  const Video video = tiny_video();
  const FieldStudyResult study = run_field_study(cfg, video);
  ASSERT_EQ(study.stats.failures, 0);
  ASSERT_EQ(study.locations.size(), 2u);
  for (const LocationOutcome& o : study.locations) {
    ASSERT_EQ(o.cells.size(), 6u);
    const ScenarioConfig net = location_scenario(
        o.location, video.total_duration() + seconds(120.0));
    std::size_t i = 0;
    for (const std::string& algo : cfg.algorithms) {
      for (const Scheme scheme : kStudySchemes) {
        const FieldStudyCell& cell = o.cells[i++];
        EXPECT_EQ(cell.algorithm, algo);
        EXPECT_EQ(cell.scheme, scheme);
        EXPECT_TRUE(cell.metrics.empty());
        Scenario scenario(net);
        SessionConfig session;
        session.scheme = scheme;
        session.adaptation = algo;
        EXPECT_EQ(summary(cell.result),
                  summary(run_streaming_session(scenario, video, session)))
            << o.location.name << "/" << algo << "/" << to_string(scheme);
        EXPECT_EQ(&o.at(algo, scheme), &cell.result);
      }
    }
    EXPECT_THROW(o.at("gpac", Scheme::kBaseline), std::out_of_range);
  }
}

TEST(FieldStudy, CellsAndAttributionAreJobsInvariant) {
  FieldStudyConfig cfg = small_field_study();
  cfg.metrics = true;
  cfg.attribution = true;
  const Video video = tiny_video();
  cfg.jobs = 1;
  const FieldStudyResult serial = run_field_study(cfg, video);
  cfg.jobs = 4;
  const FieldStudyResult parallel = run_field_study(cfg, video);
  ASSERT_EQ(serial.stats.failures, 0);
  ASSERT_EQ(parallel.stats.failures, 0);
  EXPECT_EQ(parallel.stats.jobs, 4);
  ASSERT_EQ(serial.locations.size(), parallel.locations.size());
  std::size_t rows = 0;
  for (std::size_t li = 0; li < serial.locations.size(); ++li) {
    const auto& a = serial.locations[li].cells;
    const auto& b = parallel.locations[li].cells;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(summary(a[i].result), summary(b[i].result));
      EXPECT_EQ(a[i].metrics, b[i].metrics);
      EXPECT_EQ(a[i].attribution, b[i].attribution);
      rows += a[i].attribution.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(rows, 0u);  // the comparison above covered real rows
}

// Metrics and attribution instrument the run's telemetry, which only
// observes: every result equals the uninstrumented run's.
TEST(FieldStudy, InstrumentationLeavesEverySessionResultUnchanged) {
  FieldStudyConfig cfg = small_field_study();
  cfg.jobs = 2;
  const Video video = tiny_video();
  const FieldStudyResult off = run_field_study(cfg, video);
  cfg.metrics = true;
  cfg.attribution = true;
  const FieldStudyResult on = run_field_study(cfg, video);
  ASSERT_EQ(off.stats.failures, 0);
  ASSERT_EQ(on.stats.failures, 0);
  for (std::size_t li = 0; li < off.locations.size(); ++li) {
    const auto& a = off.locations[li].cells;
    const auto& b = on.locations[li].cells;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(summary(a[i].result), summary(b[i].result));
      EXPECT_TRUE(a[i].metrics.empty());
      EXPECT_TRUE(a[i].attribution.empty());
      EXPECT_FALSE(b[i].metrics.empty());
      EXPECT_FALSE(b[i].attribution.empty());
    }
  }
}

}  // namespace
}  // namespace mpdash
