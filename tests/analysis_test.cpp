#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/render.h"
#include "dash/events.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "http/message.h"
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

// Runs a session with `sink` folding its records as they are emitted.
SessionResult run_with(Scenario& scenario, const SessionConfig& cfg,
                       TraceSink& sink) {
  Telemetry telemetry;
  telemetry.add_sink(&sink);
  return run_streaming_session(scenario, tiny_video(), cfg,
                               {.telemetry = &telemetry});
}

SessionResult recorded_session(Scheme scheme, TraceSink& sink) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.adaptation = "festive";
  return run_with(scenario, cfg, sink);
}

// The stream the ordering case delivers: a manifest A, media responses
// B, C and D with a second manifest M2 between C and D, cut into packets
// P0..P7.
struct HandBuiltStream {
  std::vector<WireData> packets;
  std::vector<std::uint64_t> seqs;
};

WireData media_response(Bytes body) {
  HttpResponse r;
  r.headers.push_back({"Content-Type", "video/iso.segment"});
  r.body_len = body;
  return r.to_wire();
}

WireData manifest_response() {
  HttpResponse r;
  r.headers.push_back({"Content-Type", "application/dash+xml"});
  r.body = "<MPD/>";
  return r.to_wire();
}

HandBuiltStream hand_built_stream() {
  const WireData a = manifest_response();
  const WireData m2 = manifest_response();
  WireData all = a;
  for (const WireData& w : {media_response(3000), media_response(2000), m2,
                            media_response(1000)}) {
    wire_append(all, w);
  }
  // The three media heads differ only in a 4-digit Content-Length.
  const Bytes head = wire_length(media_response(3000)) - 3000;
  // P0..P7: A | B's head + 1000, 1000, 1000 | C's head + 1000, 1000 | M2 |
  // D's head + 1000.
  HandBuiltStream s;
  Bytes off = 0;
  for (const Bytes len : {wire_length(a), head + 1000, Bytes{1000},
                          Bytes{1000}, head + 1000, Bytes{1000},
                          wire_length(m2), head + 1000}) {
    s.packets.push_back(wire_slice(all, off, len));
    s.seqs.push_back(static_cast<std::uint64_t>(off));
    off += len;
  }
  return s;
}

TraceRecord chunk_request(double at_s, int level, int chunk) {
  TraceRecord r;
  r.at = TimePoint(seconds(at_s));
  r.type = TraceType::kPlayer;
  r.label = to_string(PlayerEventType::kChunkRequest);
  r.level = level;
  r.chunk = chunk;
  return r;
}

TraceRecord delivered(const HandBuiltStream& s, std::size_t i, int path,
                      double at_s) {
  TraceRecord r;
  r.at = TimePoint(seconds(at_s));
  r.type = TraceType::kPacketDeliver;
  r.path_id = path;
  r.link_id = 2 * path;  // the path's downlink
  r.kind = PacketKind::kData;
  r.payload_len = wire_length(s.packets[i]);
  r.wire_size = r.payload_len + 52;
  r.data_seq = s.seqs[i];
  r.payload = &s.packets[i];
  return r;
}

AnalysisReport analyze_records(const std::vector<TraceRecord>& records) {
  AnalysisBuilder analysis;
  for (const TraceRecord& r : records) analysis.on_record(r);
  return analysis.finish();
}

// The ordering rules of HTTP reconstruction, on hand-built records: the
// downlink stream parses in data_seq order, each data_seq's first
// delivery only, whatever order the paths deliver in; bytes past a hole
// that never fills still parse; the i-th media response takes the i-th
// kChunkRequest, a manifest takes none, and a response past the last
// request keeps -1/-1.
TEST(Analyzer, ReconstructionOrderingRules) {
  const HandBuiltStream s = hand_built_stream();
  const std::vector<TraceRecord> records = {
      delivered(s, 0, 0, 1.0),     // the manifest
      chunk_request(1.05, 3, 0),
      delivered(s, 2, 1, 1.1),     // past the hole at P1: waits
      delivered(s, 1, 0, 1.2),     // fills it: P1, then P2
      delivered(s, 1, 1, 1.3),     // duplicate of parsed bytes
      delivered(s, 4, 1, 1.4),     // past the hole at P3: waits
      delivered(s, 4, 0, 1.5),     // duplicate of a waiting record
      delivered(s, 3, 0, 1.6),     // the hole filled late: P3, then P4
      chunk_request(1.65, 1, 1),   // after its response's head parsed
      delivered(s, 7, 0, 1.7),     // past P5 and the lost manifest P6
      delivered(s, 5, 1, 1.8),     // P6 never arrives
  };
  const AnalysisReport report = analyze_records(records);

  ASSERT_EQ(report.chunks.size(), 3u);
  const ChunkDelivery& b = report.chunks[0];
  EXPECT_EQ(b.index, 0);
  EXPECT_EQ(b.level, 3);
  EXPECT_EQ(b.chunk, 0);
  EXPECT_EQ(b.total_bytes, 3000);
  EXPECT_EQ(b.bytes_per_path[0], 2000);
  EXPECT_EQ(b.bytes_per_path[1], 1000);
  EXPECT_EQ(b.start, TimePoint(seconds(1.2)));
  EXPECT_EQ(b.end, TimePoint(seconds(1.6)));

  const ChunkDelivery& c = report.chunks[1];
  EXPECT_EQ(c.index, 1);
  EXPECT_EQ(c.level, 1);
  EXPECT_EQ(c.chunk, 1);
  EXPECT_EQ(c.total_bytes, 2000);
  EXPECT_EQ(c.bytes_per_path[0], 0);
  EXPECT_EQ(c.bytes_per_path[1], 2000);
  EXPECT_EQ(c.start, TimePoint(seconds(1.4)));
  EXPECT_EQ(c.end, TimePoint(seconds(1.8)));

  const ChunkDelivery& d = report.chunks[2];
  EXPECT_EQ(d.index, 2);
  EXPECT_EQ(d.level, -1);
  EXPECT_EQ(d.chunk, -1);
  EXPECT_EQ(d.total_bytes, 1000);
  EXPECT_EQ(d.bytes_per_path[0], 1000);
  EXPECT_EQ(d.start, TimePoint(seconds(1.7)));
  EXPECT_EQ(d.end, TimePoint(seconds(1.7)));

  EXPECT_EQ(report.session_length, Duration(seconds(1.8)));
}


TEST(Analyzer, ReconstructsEveryChunkFromTheWire) {
  AnalysisBuilder analysis;
  const SessionResult res = recorded_session(Scheme::kBaseline, analysis);
  ASSERT_TRUE(res.completed);
  const AnalysisReport report = analysis.finish();

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
  AnalysisBuilder analysis;
  const SessionResult res = run_with(scenario, cfg, analysis);
  ASSERT_TRUE(res.completed);

  const AnalysisReport report = analysis.finish();
  const PathUsage* wifi = report.path(kWifiPathId);
  const PathUsage* lte = report.path(kCellularPathId);
  ASSERT_NE(wifi, nullptr);
  ASSERT_NE(lte, nullptr);
  EXPECT_EQ(wifi->wire_bytes_total() + lte->wire_bytes_total(),
            res.wifi_bytes + res.cell_bytes);
  EXPECT_EQ(report.path(42), nullptr);
}

TEST(Analyzer, MpDashShiftsChunkBytesOffCellular) {
  AnalysisBuilder base, mpd;
  recorded_session(Scheme::kBaseline, base);
  recorded_session(Scheme::kMpDashRate, mpd);
  const auto base_report = base.finish();
  const auto mpd_report = mpd.finish();

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
  AnalysisBuilder analysis;
  recorded_session(Scheme::kBaseline, analysis);
  const AnalysisReport report = analysis.finish();
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
  AnalysisBuilder analysis;
  const SessionResult res = run_with(scenario, cfg, analysis);
  ASSERT_TRUE(res.completed);
  ASSERT_GT(res.stalls, 1);
  ASSERT_GT(res.switches, 0);

  const AnalysisReport report = analysis.finish();
  EXPECT_EQ(report.stalls.size(), static_cast<std::size_t>(res.stalls));
  Duration stalled = kDurationZero;
  for (const StallInterval& s : report.stalls) stalled += s.end - s.start;
  EXPECT_EQ(to_seconds(stalled), res.stall_s);
  EXPECT_EQ(report.quality_switches, res.switches);
}

TEST(Analyzer, ThroughputSeriesCoversSession) {
  ThroughputBuilder throughput;
  recorded_session(Scheme::kBaseline, throughput);
  const ThroughputSeries series = throughput.finish();
  ASSERT_FALSE(series.total.empty());
  // Peak aggregate should be near the 10 Mbps of combined capacity.
  double peak = 0.0;
  for (const auto& [t, mbps] : series.total) peak = std::max(peak, mbps);
  EXPECT_GT(peak, 5.0);
  EXPECT_LT(peak, 12.0);
  EXPECT_FALSE(series.per_path[kWifiPathId].empty());
}

TEST(Render, TimelineShowsLevelsAndCellularShare) {
  AnalysisBuilder analysis;
  recorded_session(Scheme::kBaseline, analysis);
  const AnalysisReport report = analysis.finish();
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
