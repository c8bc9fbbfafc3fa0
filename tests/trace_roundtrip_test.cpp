// JSONL trace round-trip: every field trace_record_to_json emits must
// parse back to an identical TraceRecord (read_trace_jsonl, beside the
// writer in src/telemetry/trace_sink, is its inverse), both for hand-built
// records of every type and for a full streaming-session trace written
// through JsonlSink. Also pins the span-propagation contract (every record
// between a chunk's kSpanStart and kSpanEnd carries its id) and that
// attaching the metrics snapshotter does not perturb the trace.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/spans.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_sink.h"

namespace mpdash {
namespace {

TraceRecord roundtrip(const TraceRecord& in) {
  const std::string json = trace_record_to_json(in);
  TraceRecord out;
  std::string err;
  EXPECT_TRUE(trace_record_from_json(json, &out, &err)) << json << ": " << err;
  return out;
}

void expect_label_eq(const char* a, const char* b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a) {
    EXPECT_STREQ(a, b);
  }
}

// Fields common to every record type.
void expect_head_eq(const TraceRecord& a, const TraceRecord& b) {
  EXPECT_EQ(a.at, b.at);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.path_id, b.path_id);
}

TEST(TraceRoundTrip, PacketFieldsSurvive) {
  TraceRecord r;
  r.at = TimePoint(nanoseconds(1234567891));  // 1.234567891 s, all digits
  r.type = TraceType::kPacketDeliver;
  r.span = 7;
  r.path_id = 1;
  r.link_id = 2;
  r.kind = PacketKind::kData;
  r.wire_size = 1500;
  r.payload_len = 1400;
  r.data_seq = 123456789012345ull;
  r.retransmit = true;
  const TraceRecord p = roundtrip(r);
  expect_head_eq(r, p);
  EXPECT_EQ(p.link_id, 2);
  EXPECT_EQ(p.kind, PacketKind::kData);
  EXPECT_EQ(p.wire_size, 1500u);
  EXPECT_EQ(p.payload_len, 1400u);
  EXPECT_EQ(p.data_seq, 123456789012345ull);
  EXPECT_TRUE(p.retransmit);
  EXPECT_EQ(p.payload, nullptr);  // payload never serializes, by design
}

TEST(TraceRoundTrip, AckPacketOmitsPayloadFields) {
  TraceRecord r;
  r.at = TimePoint(seconds(2.5));
  r.type = TraceType::kPacketSend;
  r.path_id = 0;
  r.link_id = 1;  // uplink
  r.kind = PacketKind::kAck;
  r.wire_size = 52;
  const TraceRecord p = roundtrip(r);
  expect_head_eq(r, p);
  EXPECT_EQ(p.kind, PacketKind::kAck);
  EXPECT_EQ(p.wire_size, 52u);
  EXPECT_EQ(p.payload_len, 0u);
  EXPECT_FALSE(p.retransmit);
}

TEST(TraceRoundTrip, SubflowUpdateDoublesAreExact) {
  TraceRecord r;
  r.type = TraceType::kSubflowUpdate;
  r.at = TimePoint(nanoseconds(999999999));
  r.path_id = 1;
  // Values with no short decimal representation: shortest-round-trip
  // formatting (std::to_chars) must still restore them bit-for-bit.
  r.cwnd = 14480.000000000002;
  r.ssthresh = 1.0 / 3.0;
  r.srtt_ms = 62.300000000000004;
  const TraceRecord p = roundtrip(r);
  expect_head_eq(r, p);
  EXPECT_EQ(p.cwnd, r.cwnd);
  EXPECT_EQ(p.ssthresh, r.ssthresh);
  EXPECT_EQ(p.srtt_ms, r.srtt_ms);
}

TEST(TraceRoundTrip, SchedDecisionInputsSurvive) {
  for (const char* decision :
       {"begin", "enable", "disable", "complete", "miss", "end"}) {
    TraceRecord r;
    r.type = TraceType::kSchedDecision;
    r.at = TimePoint(seconds(3.125));
    r.span = 42;
    r.path_id = 1;
    r.label = decision;
    r.enabled = std::strcmp(decision, "enable") == 0;
    r.budget_s = 1.2999999999999998;
    r.deliverable_bytes = 350000.5;
    r.remaining_bytes = 1048576.0;
    const TraceRecord p = roundtrip(r);
    expect_head_eq(r, p);
    expect_label_eq(p.label, decision);
    EXPECT_EQ(p.enabled, r.enabled);
    EXPECT_EQ(p.budget_s, r.budget_s);
    EXPECT_EQ(p.deliverable_bytes, r.deliverable_bytes);
    EXPECT_EQ(p.remaining_bytes, r.remaining_bytes);
  }
}

TEST(TraceRoundTrip, PathMaskSurvives) {
  TraceRecord r;
  r.type = TraceType::kPathMask;
  r.at = TimePoint(seconds(1.0));
  r.mask = 0b101u;
  const TraceRecord p = roundtrip(r);
  expect_head_eq(r, p);
  EXPECT_EQ(p.mask, 0b101u);
}

TEST(TraceRoundTrip, PlayerEventSurvives) {
  TraceRecord r;
  r.type = TraceType::kPlayer;
  r.at = TimePoint(seconds(12.75));
  r.span = 9;
  r.label = "chunk_request";
  r.level = 3;
  r.chunk = 17;
  r.bytes = 280652;
  r.value = 8.6999999999999993;
  const TraceRecord p = roundtrip(r);
  expect_head_eq(r, p);
  expect_label_eq(p.label, "chunk_request");
  EXPECT_EQ(p.level, 3);
  EXPECT_EQ(p.chunk, 17);
  EXPECT_EQ(p.bytes, 280652u);
  EXPECT_EQ(p.value, r.value);
}

TEST(TraceRoundTrip, FaultPhaseLabelsSurvive) {
  for (const char* kind : {"blackout", "flap", "loss_burst", "rtt_spike",
                           "rate_collapse", "server_stall", "server_reset"}) {
    for (const bool start : {true, false}) {
      TraceRecord r;
      r.type = TraceType::kFault;
      r.at = TimePoint(seconds(30.0));
      r.path_id = std::strncmp(kind, "server", 6) == 0 ? -1 : 1;
      r.label = kind;
      r.enabled = start;  // serialized as phase:"start"/"end"
      r.value = 2.5;
      const TraceRecord p = roundtrip(r);
      expect_head_eq(r, p);
      expect_label_eq(p.label, kind);
      EXPECT_EQ(p.enabled, start) << kind;
      EXPECT_EQ(p.value, 2.5);
    }
  }
}

TEST(TraceRoundTrip, HttpEventSurvives) {
  for (const char* event :
       {"request", "timeout", "retry", "response", "giveup"}) {
    TraceRecord r;
    r.type = TraceType::kHttp;
    r.at = TimePoint(seconds(4.5));
    r.span = 3;
    r.label = event;
    r.level = 2;  // attempt number
    r.value = 1.5;
    const TraceRecord p = roundtrip(r);
    expect_head_eq(r, p);
    expect_label_eq(p.label, event);
    EXPECT_EQ(p.level, 2);
    EXPECT_EQ(p.value, 1.5);
  }
}

TEST(TraceRoundTrip, SpanStartAndEndSurvive) {
  TraceRecord s;
  s.type = TraceType::kSpanStart;
  s.at = TimePoint(seconds(8.0));
  s.span = 5;
  s.label = "chunk";
  s.level = 2;
  s.chunk = 6;
  s.bytes = 512000;
  s.value = 6.4;  // deadline_s
  const TraceRecord ps = roundtrip(s);
  expect_head_eq(s, ps);
  expect_label_eq(ps.label, "chunk");
  EXPECT_EQ(ps.level, 2);
  EXPECT_EQ(ps.chunk, 6);
  EXPECT_EQ(ps.bytes, 512000u);
  EXPECT_EQ(ps.value, 6.4);

  TraceRecord e;
  e.type = TraceType::kSpanEnd;
  e.at = TimePoint(seconds(9.5));
  e.span = 5;
  e.label = "delivered";
  e.level = 2;
  e.chunk = 6;
  e.bytes = 512000;
  e.value = 1.5;  // elapsed_s
  const TraceRecord pe = roundtrip(e);
  expect_head_eq(e, pe);
  expect_label_eq(pe.label, "delivered");
  EXPECT_EQ(pe.value, 1.5);

  // A failed manifest span omits level/chunk/bytes entirely.
  TraceRecord m;
  m.type = TraceType::kSpanEnd;
  m.at = TimePoint(seconds(1.0));
  m.span = 1;
  m.label = "failed";
  m.value = 1.0;
  const TraceRecord pm = roundtrip(m);
  expect_label_eq(pm.label, "failed");
  EXPECT_EQ(pm.level, -1);
  EXPECT_EQ(pm.chunk, -1);
  EXPECT_EQ(pm.bytes, 0u);
}

TEST(TraceRoundTrip, NestedAndOverlappingSpansSurvive) {
  // A pipelined trace interleaves span lifecycles: 2 opens inside 1, 3
  // opens inside both, 2 closes before 1 (overlap, not strict nesting).
  // The writer/loader pair must preserve the interleaving exactly, and
  // the span model built from the loaded records must see the overlap.
  auto span_rec = [](double at_s, TraceType type, SpanId span, int chunk,
                     const char* label) {
    TraceRecord r;
    r.at = TimePoint(seconds(at_s));
    r.type = type;
    r.span = span;
    r.chunk = chunk;
    r.level = 1;
    r.bytes = 1000 * span;
    r.label = label;
    r.value = type == TraceType::kSpanStart ? 4.0 : 1.0;
    return r;
  };
  const std::vector<TraceRecord> live = {
      span_rec(1.0, TraceType::kSpanStart, 1, 0, "chunk"),
      span_rec(1.5, TraceType::kSpanStart, 2, 1, "chunk"),
      span_rec(2.0, TraceType::kSpanStart, 3, 2, "chunk"),
      span_rec(2.5, TraceType::kSpanEnd, 2, 1, "delivered"),
      span_rec(3.0, TraceType::kSpanEnd, 1, 0, "delivered"),
      span_rec(3.5, TraceType::kSpanEnd, 3, 2, "abandoned"),
  };

  const std::string path =
      ::testing::TempDir() + "mpdash_overlap_roundtrip.jsonl";
  {
    JsonlSink sink(path);
    for (const TraceRecord& r : live) sink.on_record(r);
  }
  TraceCollector reader;
  std::string err;
  ASSERT_TRUE(read_trace_jsonl(path, reader, &err)) << err;
  std::remove(path.c_str());
  const std::vector<TraceRecord>& loaded = reader.records();

  ASSERT_EQ(loaded.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    expect_head_eq(live[i], loaded[i]);
    expect_label_eq(live[i].label, loaded[i].label);
    EXPECT_EQ(loaded[i].chunk, live[i].chunk) << "record " << i;
    EXPECT_EQ(loaded[i].bytes, live[i].bytes) << "record " << i;
    EXPECT_EQ(loaded[i].value, live[i].value) << "record " << i;
  }

  const SpanModel model = build_span_model(loaded);
  ASSERT_EQ(model.spans.size(), 3u);
  for (const ChunkTimeline& t : model.spans) {
    ASSERT_TRUE(t.closed());
    EXPECT_EQ(t.max_concurrent_spans, 3);  // all three open in [2.0, 2.5)
  }
  EXPECT_STREQ(model.spans[0].status, "delivered");
  EXPECT_STREQ(model.spans[1].status, "delivered");
  EXPECT_STREQ(model.spans[2].status, "abandoned");
  // Close order (2, 1, 3) differs from open order (1, 2, 3): the model
  // must keep per-span windows, not assume LIFO/FIFO nesting.
  EXPECT_EQ(to_seconds(model.spans[0].end), 3.0);
  EXPECT_EQ(to_seconds(model.spans[1].end), 2.5);
  EXPECT_EQ(to_seconds(model.spans[2].end), 3.5);
}

TEST(TraceRoundTrip, LoaderRejectsGarbage) {
  TraceRecord out;
  std::string err;
  EXPECT_FALSE(trace_record_from_json("not json", &out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(trace_record_from_json("{\"t\":1.0}", &out, &err));
  EXPECT_FALSE(
      trace_record_from_json("{\"t\":1.0,\"type\":\"martian\"}", &out, &err));
  // Each is one valid record plus one defect: text after the object, a
  // raw control character in a string, a non-JSON number, and integer
  // fields given a negative, an overflowing or a fractional value.
  const std::string head = "{\"t\":1.0,\"type\":\"packet_deliver\"";
  for (const std::string& bad : {
           head + "} trailing",
           head + ",\"kind\":\"da\tta\"}",
           std::string("{\"t\":1.0,\"type\":\"player\",\"value\":inf}"),
           head + ",\"span\":-1}",
           head + ",\"path\":1e300}",
           head + ",\"seq\":1.5}",
       }) {
    err.clear();
    EXPECT_FALSE(trace_record_from_json(bad, &out, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  ASSERT_TRUE(trace_record_from_json(head + "}", &out, &err)) << err;
}

// A malformed line stops the reader after the records before it have
// reached the sink, and the error names the file and line.
TEST(TraceRoundTrip, ReaderFeedsRecordsBeforeAMalformedLine) {
  const std::string path =
      ::testing::TempDir() + "mpdash_malformed_line3.jsonl";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"t\":1.0,\"type\":\"player\",\"chunk\":0,\"value\":0}\n"
               "{\"t\":2.0,\"type\":\"player\",\"chunk\":1,\"value\":0}\n"
               "{\"t\":3.0,\"type\":\"player\",\"chunk\":\n"
               "{\"t\":4.0,\"type\":\"player\",\"chunk\":3,\"value\":0}\n",
               f);
    std::fclose(f);
  }
  TraceCollector reader;
  std::string err;
  EXPECT_FALSE(read_trace_jsonl(path, reader, &err));
  std::remove(path.c_str());
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].chunk, 0);
  EXPECT_EQ(reader.records()[1].chunk, 1);
  EXPECT_EQ(err.rfind(path + ":3: ", 0), 0u) << err;
}

// Writes `text` to a fresh temp file and returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

TEST(TraceRoundTrip, ReaderLoadsALastLineWithoutNewline) {
  const std::string path = write_temp(
      "mpdash_no_final_newline.jsonl",
      "{\"t\":1.0,\"type\":\"player\",\"chunk\":0,\"value\":0}\n"
      "\n"
      "{\"t\":2.0,\"type\":\"player\",\"chunk\":1,\"value\":0}");
  TraceCollector reader;
  std::string err;
  EXPECT_TRUE(read_trace_jsonl(path, reader, &err)) << err;
  std::remove(path.c_str());
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].chunk, 0);
  EXPECT_EQ(reader.records()[1].chunk, 1);
}

// The reader streams the file through a fixed-size buffer: a record line
// longer than the buffer is carried across the chunk boundaries intact,
// and the lines after it keep their numbers.
TEST(TraceRoundTrip, ReaderLoadsALineLongerThanItsBuffer) {
  const std::string label(100'000, 'x');
  const std::string path = write_temp(
      "mpdash_long_line.jsonl",
      "{\"t\":1.0,\"type\":\"player\",\"chunk\":0,\"value\":0}\n"
      "{\"t\":2.0,\"type\":\"player\",\"event\":\"" + label +
          "\",\"chunk\":1,\"value\":0}\n"
          "{\"t\":3.0,\"type\":\"player\",\"chunk\":2,\"value\":0}\n"
          "{\"t\":4.0,\"type\":\"player\",\"chunk\":\n");
  TraceCollector reader;
  std::string err;
  EXPECT_FALSE(read_trace_jsonl(path, reader, &err));
  EXPECT_EQ(err.rfind(path + ":4: ", 0), 0u) << err;
  std::remove(path.c_str());
  ASSERT_EQ(reader.records().size(), 3u);
  ASSERT_NE(reader.records()[1].label, nullptr);
  EXPECT_EQ(reader.records()[1].label, label);
  EXPECT_EQ(reader.records()[1].chunk, 1);
  EXPECT_EQ(reader.records()[2].chunk, 2);
}

TEST(TraceRoundTrip, ReaderFailsOnAMissingPath) {
  const std::string path = ::testing::TempDir() + "mpdash_no_such.jsonl";
  std::remove(path.c_str());
  TraceCollector reader;
  std::string err;
  EXPECT_FALSE(read_trace_jsonl(path, reader, &err));
  EXPECT_EQ(err, "cannot open " + path);
  EXPECT_TRUE(reader.records().empty());
}

TEST(TraceRoundTrip, ReaderFailsOnADirectory) {
  const std::string dir = ::testing::TempDir();
  TraceCollector reader;
  std::string err;
  EXPECT_FALSE(read_trace_jsonl(dir, reader, &err));
  EXPECT_NE(err.find(dir), std::string::npos) << err;
  EXPECT_TRUE(reader.records().empty());
}

TEST(TraceRoundTrip, LoaderDecodesUnicodeEscapesAsUtf8) {
  TraceRecord out;
  std::string err;
  ASSERT_TRUE(trace_record_from_json(
      "{\"t\":1.0,\"type\":\"span_end\",\"span\":1,"
      "\"status\":\"caf\\u00e9\",\"elapsed_s\":1.0}",
      &out, &err))
      << err;
  EXPECT_STREQ(out.label, "caf\xC3\xA9");  // "café" in UTF-8
}

TEST(TraceRoundTrip, KnownLabelsInternToStaticStorage) {
  // The same label string always maps to the same pointer, so loaded
  // records can be compared by pointer just like live ones.
  EXPECT_EQ(intern_trace_label("chunk_request"),
            intern_trace_label("chunk_request"));
  EXPECT_EQ(intern_trace_label("blackout"), intern_trace_label("blackout"));
  EXPECT_EQ(intern_trace_label("novel_label_xyz"),
            intern_trace_label("novel_label_xyz"));
}

// --- trace-type filtering ----------------------------------------------

TEST(TraceTypeFilter, ParseAcceptsNamesAndRejectsUnknown) {
  std::uint32_t mask = 0;
  ASSERT_TRUE(parse_trace_types("player,sched_decision", &mask));
  EXPECT_EQ(mask, (1u << static_cast<unsigned>(TraceType::kPlayer)) |
                      (1u << static_cast<unsigned>(TraceType::kSchedDecision)));
  ASSERT_TRUE(parse_trace_types(" fault , span_start,span_end ", &mask));
  EXPECT_EQ(mask, (1u << static_cast<unsigned>(TraceType::kFault)) |
                      (1u << static_cast<unsigned>(TraceType::kSpanStart)) |
                      (1u << static_cast<unsigned>(TraceType::kSpanEnd)));
  const std::uint32_t before = mask;
  EXPECT_FALSE(parse_trace_types("player,bogus", &mask));
  EXPECT_EQ(mask, before);  // untouched on failure
}

TEST(TraceTypeFilter, SinkForwardsOnlyMaskedTypes) {
  TraceCollector inner;
  std::uint32_t mask = 0;
  ASSERT_TRUE(parse_trace_types("player", &mask));
  TypeFilterSink filter(&inner, mask);
  TraceRecord player;
  player.type = TraceType::kPlayer;
  TraceRecord packet;
  packet.type = TraceType::kPacketDeliver;
  filter.on_record(player);
  filter.on_record(packet);
  filter.on_record(player);
  ASSERT_EQ(inner.records().size(), 2u);
  EXPECT_EQ(inner.records()[0].type, TraceType::kPlayer);
  EXPECT_EQ(inner.records()[1].type, TraceType::kPlayer);
}

// --- full-session round-trip and span propagation -----------------------

class SessionTrace : public ::testing::Test {
 protected:
  // Short MP-DASH session over ample constant links: every chunk
  // delivers, the scheduler engages, spans never overlap.
  SessionResult run(Telemetry& telemetry, MetricsTimeline* metrics) {
    ScenarioConfig net =
        constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0));
    net.seed = 21;
    Scenario scenario(net);
    SessionConfig cfg;
    cfg.scheme = Scheme::kMpDashDuration;
    SessionEnv env;
    env.telemetry = &telemetry;
    env.metrics = metrics;
    // 12 chunks (24 s): long enough for the buffer to clear omega so the
    // deadline scheduler engages at least once mid-session.
    const Video video("clip", seconds(2.0), 12,
                      {DataRate::mbps(0.6), DataRate::mbps(1.2)}, 0.1, 11);
    return run_streaming_session(scenario, video, cfg, env);
  }

  std::string write_and_read(const std::vector<TraceRecord>& records,
                             std::vector<TraceRecord>* loaded) {
    const std::string path =
        ::testing::TempDir() + "mpdash_roundtrip_test.jsonl";
    {
      JsonlSink sink(path);
      for (const TraceRecord& r : records) sink.on_record(r);
    }
    TraceCollector reader;
    std::string err;
    EXPECT_TRUE(read_trace_jsonl(path, reader, &err)) << err;
    std::remove(path.c_str());
    *loaded = reader.take();
    return path;
  }
};

TEST_F(SessionTrace, JsonlRoundTripsFieldForField) {
  Telemetry telemetry;
  TraceCollector collector;
  telemetry.add_sink(&collector);
  const SessionResult res = run(telemetry, nullptr);
  ASSERT_TRUE(res.completed);
  const std::vector<TraceRecord>& live = collector.records();
  ASSERT_FALSE(live.empty());

  std::vector<TraceRecord> loaded;
  write_and_read(live, &loaded);
  ASSERT_EQ(loaded.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const TraceRecord& a = live[i];
    const TraceRecord& b = loaded[i];
    ASSERT_EQ(a.type, b.type) << "record " << i;
    EXPECT_EQ(a.at, b.at) << "record " << i;
    EXPECT_EQ(a.span, b.span) << "record " << i;
    EXPECT_EQ(a.path_id, b.path_id) << "record " << i;
    expect_label_eq(a.label, b.label);
    if (a.is_packet()) {
      EXPECT_EQ(a.link_id, b.link_id);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.wire_size, b.wire_size);
      EXPECT_EQ(a.payload_len, b.payload_len);
      EXPECT_EQ(a.retransmit, b.retransmit);
    }
    if (a.type == TraceType::kSchedDecision) {
      EXPECT_EQ(a.enabled, b.enabled);
      EXPECT_EQ(a.budget_s, b.budget_s);
      EXPECT_EQ(a.deliverable_bytes, b.deliverable_bytes);
      EXPECT_EQ(a.remaining_bytes, b.remaining_bytes);
    }
  }
}

TEST_F(SessionTrace, EveryChunkGetsOneSpanAndRecordsCarryIt) {
  Telemetry telemetry;
  TraceCollector collector;
  telemetry.add_sink(&collector);
  const SessionResult res = run(telemetry, nullptr);
  ASSERT_TRUE(res.completed);

  const SpanModel model = build_span_model(collector.records());
  // One manifest span + one span per chunk.
  ASSERT_EQ(model.spans.size(), 13u);
  EXPECT_STREQ(model.spans.front().name, "manifest");
  int engaged = 0;
  for (std::size_t i = 1; i < model.spans.size(); ++i) {
    const ChunkTimeline& t = model.spans[i];
    EXPECT_STREQ(t.name, "chunk");
    EXPECT_EQ(t.chunk, static_cast<int>(i - 1));
    EXPECT_GT(t.span, model.spans[i - 1].span);  // allocation order
    ASSERT_TRUE(t.closed());
    EXPECT_STREQ(t.status, "delivered");
    EXPECT_GT(t.delivered_bytes, 0u);
    EXPECT_TRUE(t.have_bytes);  // downlink payload attributed to it
    EXPECT_FALSE(t.missed());
    if (t.sched_engaged) ++engaged;
  }
  // Algorithm 1 engages once the buffer clears omega; the span model must
  // agree with the session's own engagement count.
  EXPECT_GT(res.chunks_engaged, 0);
  EXPECT_EQ(engaged, res.chunks_engaged);

  // Span-carrying coverage: every player, sched, and HTTP record emitted
  // while a chunk was in flight carries a nonzero span.
  for (const TraceRecord& r : collector.records()) {
    if (r.type == TraceType::kSchedDecision || r.type == TraceType::kHttp) {
      EXPECT_NE(r.span, 0u) << to_string(r.type) << " at "
                            << to_seconds(r.at);
    }
  }
}

TEST_F(SessionTrace, SnapshotterDoesNotPerturbTheTrace) {
  // Identical sessions with and without the metrics snapshotter must
  // produce byte-identical JSONL traces: sampling only reads the
  // registry, never feeds back into sim state.
  auto trace_json = [this](bool with_series) {
    Telemetry telemetry;
    TraceCollector collector;
    telemetry.add_sink(&collector);
    MetricsTimeline timeline;
    run(telemetry, with_series ? &timeline : nullptr);
    if (with_series) {
      EXPECT_FALSE(timeline.empty());
    }
    std::string out;
    for (const TraceRecord& r : collector.records()) {
      out += trace_record_to_json(r);
      out += '\n';
    }
    return out;
  };
  const std::string bare = trace_json(false);
  const std::string series = trace_json(true);
  EXPECT_EQ(bare, series);
}

TEST_F(SessionTrace, TimelineCsvIsDeterministic) {
  auto series_csv = [this] {
    Telemetry telemetry;
    MetricsTimeline timeline;
    run(telemetry, &timeline);
    return timeline.to_csv();
  };
  const std::string a = series_csv();
  const std::string b = series_csv();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mpdash
