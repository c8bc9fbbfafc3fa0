#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "telemetry/metrics.h"
#include "telemetry/prometheus.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_sink.h"
#include "util/json.h"

namespace mpdash {
namespace {

// --- metrics ----------------------------------------------------------

TEST(Metrics, CounterIsMonotonic) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.total");
  c.increment();
  c.add(2.5);
  c.add(-10.0);  // negative deltas are invalid and ignored
  c.add(0.0);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  MetricsRegistry reg;
  Gauge g = reg.gauge("a.level");
  g.set(7.0);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("rtt", {10.0, 50.0, 100.0});
  h.record(5.0);    // <= 10
  h.record(10.0);   // <= 10 (bounds are inclusive upper edges)
  h.record(60.0);   // <= 100
  h.record(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 575.0);
  EXPECT_DOUBLE_EQ(h.mean(), 143.75);

  const MetricsSnapshot snap = reg.snapshot(kTimeZero);
  ASSERT_EQ(snap.values.size(), 1u);
  const MetricValue& v = snap.values.front();
  ASSERT_EQ(v.bucket_counts.size(), 4u);
  EXPECT_EQ(v.bucket_counts[0], 2u);  // 5, 10
  EXPECT_EQ(v.bucket_counts[1], 0u);
  EXPECT_EQ(v.bucket_counts[2], 1u);  // 60
  EXPECT_EQ(v.bucket_counts[3], 1u);  // 500 (overflow)
  EXPECT_DOUBLE_EQ(v.min, 5.0);
  EXPECT_DOUBLE_EQ(v.max, 500.0);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  Counter a = reg.counter("x");
  Counter b = reg.counter("x");
  a.increment();
  b.increment();
  EXPECT_DOUBLE_EQ(a.value(), 2.0);  // same slot
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(Metrics, DetachedHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.increment();
  g.set(3.0);
  h.record(1.0);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, SnapshotIsNameSortedAndTimelineExportsCsv) {
  MetricsRegistry reg;
  reg.gauge("b.level").set(2.0);
  reg.counter("a.total").add(5.0);
  MetricsTimeline timeline;
  timeline.record(reg.snapshot(TimePoint(seconds(1.0))));
  reg.counter("a.total").add(1.0);
  timeline.record(reg.snapshot(TimePoint(seconds(2.0))));

  const MetricsSnapshot& first = timeline.snapshots().front();
  ASSERT_EQ(first.values.size(), 2u);
  EXPECT_EQ(first.values[0].name, "a.total");
  EXPECT_EQ(first.values[1].name, "b.level");

  const std::string csv = timeline.to_csv();
  EXPECT_NE(csv.find("time_s,metric,value"), std::string::npos);
  EXPECT_NE(csv.find("1,a.total,5"), std::string::npos);
  EXPECT_NE(csv.find("2,a.total,6"), std::string::npos);
  EXPECT_NE(csv.find("b.level,2"), std::string::npos);
}

TEST(Metrics, TimelineFlattensHistograms) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("rtt_ms", {10.0, 100.0});
  h.record(3.0);
  h.record(42.0);
  MetricsTimeline timeline;
  timeline.record(reg.snapshot(TimePoint(seconds(1.0))));
  const std::string csv = timeline.to_csv();
  EXPECT_NE(csv.find("rtt_ms.count,2"), std::string::npos);
  EXPECT_NE(csv.find("rtt_ms.le_10,1"), std::string::npos);
  EXPECT_NE(csv.find("rtt_ms.le_100,2"), std::string::npos);  // cumulative
  EXPECT_NE(csv.find("rtt_ms.le_inf,2"), std::string::npos);
}

// --- trace sinks ------------------------------------------------------

TraceRecord player_record(double t, int chunk) {
  TraceRecord r;
  r.at = TimePoint(seconds(t));
  r.type = TraceType::kPlayer;
  r.label = "chunk_complete";
  r.chunk = chunk;
  return r;
}

TEST(TraceSink, RingBufferKeepsNewestOnWraparound) {
  RingBufferSink ring(4);
  for (int i = 0; i < 10; ++i) ring.on_record(player_record(i, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_seen(), 10u);
  EXPECT_EQ(ring.overwritten(), 6u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(snap[static_cast<std::size_t>(i)].chunk, 6 + i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TraceSink, RingBufferBelowCapacityReturnsAll) {
  RingBufferSink ring(8);
  for (int i = 0; i < 3; ++i) ring.on_record(player_record(i, i));
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().chunk, 0);
  EXPECT_EQ(snap.back().chunk, 2);
  EXPECT_EQ(ring.overwritten(), 0u);
}

TEST(TraceSink, JsonEscaping) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(json_quote(std::string("nul\x01")), "\"nul\\u0001\"");
}

TEST(TraceSink, RecordToJsonCarriesTypedFields) {
  TraceRecord r;
  r.at = TimePoint(seconds(1.5));
  r.type = TraceType::kSchedDecision;
  r.label = "enable";
  r.path_id = 1;
  r.enabled = true;
  r.budget_s = 2.5;
  r.deliverable_bytes = 1000.0;
  r.remaining_bytes = 4000.0;
  const std::string json = trace_record_to_json(r);
  EXPECT_NE(json.find("\"type\":\"sched_decision\""), std::string::npos);
  EXPECT_NE(json.find("\"decision\":\"enable\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"budget_s\":2.5"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceSink, JsonlSinkWritesOneLinePerRecord) {
  // Absolute temp path: cases run concurrently under `ctest -j` from a
  // shared working directory, so cwd-relative output files are unsafe.
  const std::string path =
      ::testing::TempDir() + "mpdash_telemetry_test_out.jsonl";
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.on_record(player_record(1.0, 0));
    sink.on_record(player_record(2.0, 1));
    EXPECT_EQ(sink.records_written(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(8192, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_NE(contents.find("\"type\":\"player\""), std::string::npos);
}

TEST(TraceSink, JsonlSinkWritesOnlyMaskedTypesAndLoadsBack) {
  const std::string path =
      ::testing::TempDir() + "mpdash_telemetry_test_masked.jsonl";
  TraceRecord packet;
  packet.type = TraceType::kPacketDeliver;
  packet.link_id = 0;
  JsonlSink sink(path, 1u << static_cast<unsigned>(TraceType::kPlayer));
  sink.on_record(player_record(1.0, 0));
  sink.on_record(packet);
  sink.on_record(player_record(2.0, 1));
  EXPECT_EQ(sink.records_written(), 2u);
  ASSERT_TRUE(sink.close());
  std::vector<TraceRecord> loaded;
  std::string err;
  ASSERT_TRUE(load_trace_jsonl(path, &loaded, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].type, TraceType::kPlayer);
  EXPECT_EQ(loaded[1].chunk, 1);
}

TEST(TraceSink, JsonlSinkCloseReportsAFailedWrite) {
  // /dev/full accepts the open and fails every write with ENOSPC: a full
  // disk, caught at the latest by the final flush in close().
  JsonlSink sink("/dev/full");
  if (!sink.ok()) GTEST_SKIP() << "no /dev/full on this system";
  sink.on_record(player_record(1.0, 0));
  EXPECT_FALSE(sink.close());
  JsonlSink unopened(::testing::TempDir() + "no_such_dir/trace.jsonl");
  EXPECT_FALSE(unopened.ok());
  EXPECT_FALSE(unopened.close());
}

TEST(Telemetry, EmitFansOutAndSinkListDedupes) {
  Telemetry telemetry;
  TraceCollector a, b;
  telemetry.add_sink(&a);
  telemetry.add_sink(&a);  // duplicate registration is a no-op
  telemetry.add_sink(&b);
  EXPECT_TRUE(telemetry.tracing());
  telemetry.emit(player_record(1.0, 0));
  EXPECT_EQ(a.records().size(), 1u);
  EXPECT_EQ(b.records().size(), 1u);
  telemetry.remove_sink(&a);
  telemetry.emit(player_record(2.0, 1));
  EXPECT_EQ(a.records().size(), 1u);
  EXPECT_EQ(b.records().size(), 2u);
  telemetry.remove_sink(&b);
  EXPECT_FALSE(telemetry.tracing());
}

// --- determinism ------------------------------------------------------

Video determinism_video() {
  return Video("Det", seconds(4.0), 6,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41)},
               0.12, 11);
}

struct RunOutcome {
  SessionResult res;
  std::size_t executed = 0;
};

RunOutcome run_once(Telemetry* telemetry) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(3.0)));
  SessionConfig cfg;
  cfg.scheme = Scheme::kMpDashRate;
  SessionEnv env;
  env.telemetry = telemetry;
  RunOutcome out;
  out.res = run_streaming_session(scenario, determinism_video(), cfg, env);
  out.executed = scenario.loop().executed_events();
  if (telemetry) scenario.set_telemetry(nullptr);
  return out;
}

TEST(Telemetry, AttachedSinksLeaveRunsBitwiseIdentical) {
  const RunOutcome bare = run_once(nullptr);

  Telemetry telemetry;
  RingBufferSink ring(1 << 14);
  TraceCollector collector;
  telemetry.add_sink(&ring);
  telemetry.add_sink(&collector);
  const RunOutcome traced = run_once(&telemetry);

  ASSERT_TRUE(bare.res.completed);
  ASSERT_TRUE(traced.res.completed);
  // Passive observation: every QoE output and the event schedule itself
  // must be bitwise identical with and without telemetry attached.
  EXPECT_EQ(bare.executed, traced.executed);
  EXPECT_EQ(bare.res.session_s, traced.res.session_s);
  EXPECT_EQ(bare.res.chunks, traced.res.chunks);
  EXPECT_EQ(bare.res.stalls, traced.res.stalls);
  EXPECT_EQ(bare.res.switches, traced.res.switches);
  EXPECT_EQ(bare.res.avg_bitrate_mbps, traced.res.avg_bitrate_mbps);
  EXPECT_EQ(bare.res.wifi_bytes, traced.res.wifi_bytes);
  EXPECT_EQ(bare.res.cell_bytes, traced.res.cell_bytes);
  EXPECT_EQ(bare.res.deadline_misses, traced.res.deadline_misses);

  // ...and the trace actually observed the session.
  EXPECT_GT(collector.records().size(), 0u);
  bool saw_subflow = false, saw_player = false, saw_sched = false;
  for (const auto& r : collector.records()) {
    saw_subflow |= r.type == TraceType::kSubflowUpdate;
    saw_player |= r.type == TraceType::kPlayer;
    saw_sched |= r.type == TraceType::kSchedDecision;
  }
  EXPECT_TRUE(saw_subflow);
  EXPECT_TRUE(saw_player);
  EXPECT_TRUE(saw_sched);
}

TEST(Telemetry, SessionMetricsTimelineSamplesBufferAndCwnd) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(5.0), DataRate::mbps(3.0)));
  SessionConfig cfg;
  cfg.scheme = Scheme::kMpDashRate;
  MetricsTimeline timeline;
  SessionEnv env;
  env.metrics = &timeline;
  const SessionResult res =
      run_streaming_session(scenario, determinism_video(), cfg, env);
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(timeline.empty());
  const std::string csv = timeline.to_csv();
  EXPECT_NE(csv.find("player.buffer_s"), std::string::npos);
  EXPECT_NE(csv.find("mptcp.subflow.0.cwnd"), std::string::npos);
  EXPECT_NE(csv.find("link.wifi.down.delivered_bytes"), std::string::npos);
}

// --- Prometheus exposition ---------------------------------------------

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("player.buffer_s"), "player_buffer_s");
  EXPECT_EQ(prometheus_name("mptcp.subflow.1.cwnd"), "mptcp_subflow_1_cwnd");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name("a-b c"), "a_b_c");
  EXPECT_EQ(prometheus_name(""), "_");
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape_label("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prometheus_escape_label("two\nlines"), "two\\nlines");
}

TEST(Prometheus, ExpositionFormatConformance) {
  MetricsRegistry reg;
  reg.counter("player.chunks").add(12);
  reg.gauge("player.buffer_s").set(4.5);
  Histogram h = reg.histogram("http.fetch_s", {0.5, 1.0, 2.0});
  h.record(0.3);   // bucket le=0.5
  h.record(0.75);  // bucket le=1.0
  h.record(0.9);   // bucket le=1.0
  h.record(5.0);   // overflow → only +Inf

  const std::string text =
      to_prometheus(reg.snapshot(TimePoint(seconds(10.0))));

  // Every family gets HELP and TYPE lines with the sanitized name.
  EXPECT_NE(text.find("# HELP player_chunks Simulation metric player.chunks"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE player_chunks counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE player_buffer_s gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE http_fetch_s histogram"), std::string::npos);

  // Scalar samples.
  EXPECT_NE(text.find("player_chunks 12\n"), std::string::npos);
  EXPECT_NE(text.find("player_buffer_s 4.5\n"), std::string::npos);

  // Histogram buckets are cumulative with inclusive upper bounds, end in
  // +Inf, and agree with _count.
  EXPECT_NE(text.find("http_fetch_s_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("http_fetch_s_bucket{le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("http_fetch_s_bucket{le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("http_fetch_s_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("http_fetch_s_sum 6.95\n"), std::string::npos);
  EXPECT_NE(text.find("http_fetch_s_count 4\n"), std::string::npos);

  // Every non-comment line is `name[{labels}] value`.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, space).find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:{}=\".+"),
              std::string::npos)
        << line;
  }
}

TEST(Prometheus, LabelsAttachToEverySampleEscaped) {
  MetricsRegistry reg;
  reg.counter("player.chunks").add(3);
  Histogram h = reg.histogram("http.fetch_s", {1.0});
  h.record(0.5);

  PrometheusOptions opts;
  opts.labels = {{"run", "chaos/3"}, {"note", "say \"hi\"\nbye"}};
  const std::string text = to_prometheus(reg.snapshot(kTimeZero), opts);

  EXPECT_NE(text.find("player_chunks{run=\"chaos/3\","
                      "note=\"say \\\"hi\\\"\\nbye\"} 3\n"),
            std::string::npos)
      << text;
  // Histograms merge caller labels with the le pair.
  EXPECT_NE(text.find("http_fetch_s_bucket{run=\"chaos/3\","
                      "note=\"say \\\"hi\\\"\\nbye\",le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("http_fetch_s_count{run=\"chaos/3\""),
            std::string::npos);
}

TEST(Prometheus, TimestampsUseSimulatedMilliseconds) {
  MetricsRegistry reg;
  reg.gauge("player.buffer_s").set(2.0);
  PrometheusOptions opts;
  opts.timestamps = true;
  const std::string text =
      to_prometheus(reg.snapshot(TimePoint(seconds(12.5))), opts);
  EXPECT_NE(text.find("player_buffer_s 2 12500\n"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace mpdash
