#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/render.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "trace/generators.h"

namespace mpdash {
namespace {

Video tiny_video() {
  return Video("Tiny", seconds(4.0), 8,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 5);
}

SessionResult recorded_session(Scheme scheme) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.adaptation = "festive";
  cfg.record_trace = true;
  return run_streaming_session(scenario, tiny_video(), cfg);
}

TEST(Analyzer, ReconstructsEveryChunkFromTheWire) {
  const SessionResult res = recorded_session(Scheme::kBaseline);
  ASSERT_TRUE(res.completed);
  AnalyzerConfig cfg;
  cfg.device = galaxy_note();
  const AnalysisReport report = analyze(res.trace, cfg);

  // One ChunkDelivery per fetched chunk, sizes matching the player's log.
  ASSERT_EQ(report.chunks.size(), res.chunk_log.size());
  for (std::size_t i = 0; i < report.chunks.size(); ++i) {
    EXPECT_EQ(report.chunks[i].chunk, res.chunk_log[i].chunk);
    EXPECT_EQ(report.chunks[i].level, res.chunk_log[i].level);
    EXPECT_EQ(report.chunks[i].total_bytes, res.chunk_log[i].bytes);
    // Per-path attribution sums to the whole body.
    Bytes sum = 0;
    for (Bytes b : report.chunks[i].bytes_per_path) sum += b;
    EXPECT_EQ(sum, report.chunks[i].total_bytes);
    EXPECT_GE(report.chunks[i].end, report.chunks[i].start);
  }
}

TEST(Analyzer, PathUsageMatchesLinkCounters) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.scheme = Scheme::kBaseline;
  cfg.adaptation = "gpac";
  cfg.record_trace = true;
  const SessionResult res = run_streaming_session(scenario, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);

  AnalyzerConfig acfg;
  acfg.device = galaxy_note();
  const AnalysisReport report = analyze(res.trace, acfg);
  const PathUsage* wifi = report.path(kWifiPathId);
  const PathUsage* lte = report.path(kCellularPathId);
  ASSERT_NE(wifi, nullptr);
  ASSERT_NE(lte, nullptr);
  EXPECT_EQ(wifi->wire_bytes_total() + lte->wire_bytes_total(),
            res.wifi_bytes + res.cell_bytes);
  EXPECT_EQ(report.path(42), nullptr);
}

TEST(Analyzer, MpDashShiftsChunkBytesOffCellular) {
  const SessionResult base = recorded_session(Scheme::kBaseline);
  const SessionResult mpd = recorded_session(Scheme::kMpDashRate);
  AnalyzerConfig cfg;
  cfg.device = galaxy_note();
  const auto base_report = analyze(base.trace, cfg);
  const auto mpd_report = analyze(mpd.trace, cfg);

  double base_cell = 0.0, mpd_cell = 0.0;
  for (const auto& c : base_report.chunks) {
    base_cell += c.cellular_fraction(kCellularPathId);
  }
  for (const auto& c : mpd_report.chunks) {
    mpd_cell += c.cellular_fraction(kCellularPathId);
  }
  EXPECT_LT(mpd_cell, base_cell);
}

TEST(Analyzer, EnergyAndSessionLengthPopulated) {
  const SessionResult res = recorded_session(Scheme::kBaseline);
  AnalyzerConfig cfg;
  cfg.device = galaxy_note();
  const AnalysisReport report = analyze(res.trace, cfg);
  EXPECT_GT(to_seconds(report.session_length), 10.0);
  EXPECT_GT(report.energy.total_j(), 0.0);
  EXPECT_GT(report.energy.lte.total_j(), 0.0);
}

// The analyzer's stall and switch statistics come from the player's
// records in the trace; on a session that stalls twice and switches levels
// they must agree with the player's own counters.
TEST(Analyzer, StallsAndSwitchesMatchTheSession) {
  ScenarioConfig net =
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(0.3));
  net.wifi_down = gen_step(DataRate::mbps(6.0), DataRate::mbps(0.2),
                           seconds(24.0), seconds(900.0));
  Scenario scenario(net);
  SessionConfig cfg;
  cfg.scheme = Scheme::kBaseline;
  cfg.adaptation = "gpac";
  cfg.record_trace = true;
  const SessionResult res = run_streaming_session(scenario, tiny_video(), cfg);
  ASSERT_TRUE(res.completed);
  ASSERT_GT(res.stalls, 1);
  ASSERT_GT(res.switches, 0);

  const AnalysisReport report = analyze(res.trace, AnalyzerConfig{});
  EXPECT_EQ(report.stalls.size(), static_cast<std::size_t>(res.stalls));
  Duration stalled = kDurationZero;
  for (const StallInterval& s : report.stalls) stalled += s.end - s.start;
  EXPECT_EQ(to_seconds(stalled), res.stall_s);
  EXPECT_EQ(report.quality_switches, res.switches);
}

TEST(Analyzer, ThroughputSeriesCoversSession) {
  const SessionResult res = recorded_session(Scheme::kBaseline);
  const ThroughputSeries series = throughput_series(res.trace);
  ASSERT_FALSE(series.total.empty());
  // Peak aggregate should be near the 10 Mbps of combined capacity.
  double peak = 0.0;
  for (const auto& [t, mbps] : series.total) peak = std::max(peak, mbps);
  EXPECT_GT(peak, 5.0);
  EXPECT_LT(peak, 12.0);
  EXPECT_FALSE(series.per_path[kWifiPathId].empty());
}

TEST(Render, TimelineShowsLevelsAndCellularShare) {
  const SessionResult res = recorded_session(Scheme::kBaseline);
  AnalyzerConfig cfg;
  cfg.device = galaxy_note();
  const AnalysisReport report = analyze(res.trace, cfg);
  const std::string out = render_chunk_timeline(report);
  EXPECT_NE(out.find("chunk level"), std::string::npos);
  EXPECT_NE(out.find("cellular share"), std::string::npos);
  EXPECT_NE(out.find("8 chunks"), std::string::npos);

  const std::string paths = render_path_summary(report);
  EXPECT_NE(paths.find("wire MB (down)"), std::string::npos);
}

TEST(Render, HandlesEmptyReport) {
  EXPECT_EQ(render_chunk_timeline(AnalysisReport{}), "(no chunks)\n");
}

}  // namespace
}  // namespace mpdash
