// Trace-tool analytics: RFC-4180 span CSV round-trips, deterministic
// fault-kind tie-breaking, attribution_counts ordering, the flame-view
// nesting model (HTTP attempts + per-path activity inside chunk spans),
// the campaign roll-up aggregation, the live span-model fold against the
// batch one, and the golden flame snapshot over the pipelined scheduler
// fixture.
//
// Regenerate the flame golden after an intentional rendering change:
//   MPDASH_UPDATE_GOLDEN=1 ./tests/trace_tool_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/render.h"
#include "analysis/rollup.h"
#include "analysis/spans.h"
#include "exp/chaos.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault.h"
#include "runner/campaign.h"
#include "telemetry/trace_sink.h"
#include "util/csv.h"
#include "util/json.h"

namespace mpdash {
namespace {

TraceRecord rec(TraceType type, double at_s, SpanId span = 0) {
  TraceRecord r;
  r.type = type;
  r.at = kTimeZero + seconds(at_s);
  r.span = span;
  return r;
}

TraceRecord span_start(SpanId span, double at_s, const char* name, int chunk,
                       int level, Bytes bytes, double deadline_s) {
  TraceRecord r = rec(TraceType::kSpanStart, at_s, span);
  r.label = name;
  r.chunk = chunk;
  r.level = level;
  r.bytes = bytes;
  r.value = deadline_s;
  return r;
}

TraceRecord span_end(SpanId span, double at_s, const char* status,
                     Bytes bytes) {
  TraceRecord r = rec(TraceType::kSpanEnd, at_s, span);
  r.label = status;
  r.bytes = bytes;
  return r;
}

TraceRecord fault_edge(double at_s, const char* kind, int path, bool begin) {
  TraceRecord r = rec(TraceType::kFault, at_s);
  r.label = kind;
  r.path_id = path;
  r.enabled = begin;
  return r;
}

TraceRecord http(SpanId span, double at_s, const char* label, int attempt,
                 double value = 0.0) {
  TraceRecord r = rec(TraceType::kHttp, at_s, span);
  r.label = label;
  r.level = attempt;
  r.value = value;
  return r;
}

TraceRecord deliver(SpanId span, double at_s, int path, Bytes payload) {
  TraceRecord r = rec(TraceType::kPacketDeliver, at_s, span);
  r.kind = PacketKind::kData;
  r.path_id = path;
  r.link_id = path * 2;  // even = downlink
  r.payload_len = payload;
  return r;
}

// --- satellite: RFC-4180 span CSV ---------------------------------------

TEST(SpanCsv, Rfc4180RoundTripsCraftedSpans) {
  // Span names / statuses with every character class RFC 4180 makes
  // special: commas, double quotes, and an embedded newline.
  const char* name = intern_trace_label("chunk \"a\", pipelined");
  const char* status = intern_trace_label("abandoned,\nmid-flight");
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.125, name, 3, 2, 1000, 0.1 + 0.2));
  trace.push_back(span_end(1, 1.0 / 3.0, status, 999));
  trace.push_back(span_start(2, 0.5, "chunk", 4, 1, 2000, 4.0));
  trace.push_back(span_end(2, 0.75, "delivered", 2000));

  SpanModel model = build_span_model(trace);
  attribute_misses(&model);
  const std::string csv = spans_to_csv(model);

  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 3u);  // header + two spans
  const auto& header = rows[0];
  const auto& span1 = rows[1];
  ASSERT_EQ(span1.size(), header.size());

  auto col = [&](const char* want) -> std::string {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == want) return span1[i];
    }
    ADD_FAILURE() << "missing column " << want;
    return {};
  };
  // Embedded quotes, commas, and the newline must parse back verbatim.
  EXPECT_EQ(col("name"), name);
  EXPECT_EQ(col("status"), status);
  // Full precision: the parsed text must round-trip to the exact double.
  EXPECT_EQ(std::strtod(col("deadline_s").c_str(), nullptr), 0.1 + 0.2);
  EXPECT_EQ(std::strtod(col("start_s").c_str(), nullptr), 0.125);
  EXPECT_EQ(std::strtod(col("end_s").c_str(), nullptr),
            to_seconds(model.spans[0].end));
  // No raw (unquoted) comma from the crafted name may create extra cells.
  for (const auto& row : rows) EXPECT_EQ(row.size(), header.size());
}

// The CSV splits a span's bytes by the path attribution was told is
// preferred, not by path 0.
TEST(SpanCsv, PreferredBytesFollowThePreferredPath) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 3000, 4.0));
  trace.push_back(deliver(1, 0.5, 0, 1000));
  trace.push_back(deliver(1, 0.6, 1, 2000));
  trace.push_back(span_end(1, 1.0, "delivered", 3000));
  SpanModel model = build_span_model(trace);
  attribute_misses(&model, 1);

  const auto rows = parse_csv(spans_to_csv(model));
  ASSERT_EQ(rows.size(), 2u);
  auto col = [&](const char* want) -> std::string {
    for (std::size_t i = 0; i < rows[0].size(); ++i) {
      if (rows[0][i] == want) return rows[1][i];
    }
    ADD_FAILURE() << "missing column " << want;
    return {};
  };
  EXPECT_EQ(col("preferred_bytes"), "2000");
  EXPECT_EQ(col("costly_bytes"), "1000");
}

TEST(SpanCsv, ShortestDoubleIsLossless) {
  for (const double v : {0.1, 1.0 / 3.0, 0.1 + 0.2, 123456.789012345,
                         1e-9, 0.0, 2.5}) {
    const std::string s = json_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    EXPECT_EQ(s.find(','), std::string::npos);
  }
}

// --- satellite: deterministic fault-kind tie-breaking -------------------

// One missed span [0, 10] with two fault kinds of *exactly* equal union
// overlap. The dominant kind must be the precedence winner no matter
// which order the windows entered the trace.
TEST(TieBreak, EqualSharesResolveByPrecedenceNotInsertionOrder) {
  for (const bool blackout_first : {true, false}) {
    std::vector<TraceRecord> trace;
    trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 1000, 1.0));
    auto add_blackout = [&] {
      trace.push_back(fault_edge(2.0, "blackout", 0, true));
      trace.push_back(fault_edge(4.0, "blackout", 0, false));
    };
    auto add_collapse = [&] {
      trace.push_back(fault_edge(6.0, "rate_collapse", 0, true));
      trace.push_back(fault_edge(8.0, "rate_collapse", 0, false));
    };
    if (blackout_first) {
      add_blackout();
      add_collapse();
    } else {
      add_collapse();
      add_blackout();
    }
    trace.push_back(span_end(1, 10.0, "abandoned", 0));

    SpanModel model = build_span_model(trace);
    attribute_misses(&model);
    ASSERT_EQ(model.spans.size(), 1u);
    const ChunkTimeline& t = model.spans[0];
    ASSERT_EQ(t.fault_overlap_by_kind.size(), 2u);
    // Listed in documented precedence order, not discovery order.
    EXPECT_STREQ(t.fault_overlap_by_kind[0].first, "blackout");
    EXPECT_STREQ(t.fault_overlap_by_kind[1].first, "rate_collapse");
    EXPECT_DOUBLE_EQ(t.fault_overlap_by_kind[0].second, 2.0);
    EXPECT_DOUBLE_EQ(t.fault_overlap_by_kind[1].second, 2.0);
    ASSERT_NE(t.dominant_fault_kind, nullptr);
    EXPECT_STREQ(t.dominant_fault_kind, "blackout")
        << "equal shares must resolve to the higher-precedence kind "
        << (blackout_first ? "(blackout first)" : "(collapse first)");
    EXPECT_EQ(t.cause, MissCause::kFaultBlackout);
  }
}

TEST(TieBreak, LargerShareBeatsPrecedence) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 1000, 1.0));
  trace.push_back(fault_edge(1.0, "blackout", 0, true));
  trace.push_back(fault_edge(2.0, "blackout", 0, false));
  trace.push_back(fault_edge(3.0, "rate_collapse", 0, true));
  trace.push_back(fault_edge(8.0, "rate_collapse", 0, false));
  trace.push_back(span_end(1, 10.0, "abandoned", 0));

  SpanModel model = build_span_model(trace);
  ASSERT_EQ(model.spans.size(), 1u);
  EXPECT_STREQ(model.spans[0].dominant_fault_kind, "rate_collapse");
}

TEST(TieBreak, FaultKindRankFollowsDocumentedOrder) {
  EXPECT_LT(fault_kind_rank("blackout"), fault_kind_rank("flap"));
  EXPECT_LT(fault_kind_rank("flap"), fault_kind_rank("rate_collapse"));
  EXPECT_LT(fault_kind_rank("rate_collapse"), fault_kind_rank("loss_burst"));
  EXPECT_LT(fault_kind_rank("server_stall"), fault_kind_rank("server_reset"));
  // Unknown kinds sort after every known one; null after unknown.
  EXPECT_LT(fault_kind_rank("server_reset"), fault_kind_rank("mystery"));
  EXPECT_LT(fault_kind_rank("mystery"), fault_kind_rank(nullptr));
}

TEST(Attribution, CountsComeBackInPrecedenceOrder) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 1000, 1.0));
  trace.push_back(span_end(1, 5.0, "abandoned", 0));
  SpanModel model = build_span_model(trace);
  attribute_misses(&model);

  const auto counts = attribution_counts(model);
  ASSERT_EQ(counts.size(), std::size(kMissCausePrecedence));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].first, kMissCausePrecedence[i]);
  }
  // Zero counts are kept so CSV columns stay fixed-width.
  int total = 0;
  for (const auto& [cause, count] : counts) total += count;
  EXPECT_EQ(total, 1);
  EXPECT_EQ(count_for(counts, MissCause::kUnknown), 1);
  EXPECT_EQ(count_for(counts, MissCause::kFaultBlackout), 0);
}

// --- tentpole: flame view ------------------------------------------------

TEST(Flame, NestsAttemptsBackoffAndPathActivity) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 5000, 8.0));
  trace.push_back(http(1, 0.5, "request", 0));
  trace.push_back(http(1, 3.5, "timeout", 0));
  trace.push_back(http(1, 3.5, "retry", 1, /*backoff=*/1.0));
  trace.push_back(http(1, 4.5, "request", 1));
  trace.push_back(deliver(1, 5.0, 0, 1200));
  trace.push_back(deliver(1, 5.02, 0, 1200));  // < merge gap: same interval
  trace.push_back(deliver(1, 5.065, 0, 1200));  // 45 ms < 50 ms: same again
  trace.push_back(deliver(1, 6.0, 1, 800));    // costly path pitches in
  trace.push_back(deliver(1, 6.5, 0, 1200));   // > merge gap: new interval
  trace.push_back(http(1, 7.0, "response", 1));
  trace.push_back(span_end(1, 7.0, "delivered", 5000));
  // An overlapping pipelined span, open over the same window.
  trace.push_back(span_start(2, 5.5, "chunk", 1, 1, 4000, 8.0));
  trace.push_back(http(2, 5.5, "request", 0));
  trace.push_back(span_end(2, 9.0, "delivered", 4000));

  SpanModel model = build_span_model(trace);
  attribute_misses(&model);

  ASSERT_EQ(model.spans.size(), 2u);
  const ChunkTimeline* d = model.find(1);
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->attempts.size(), 2u);
  EXPECT_EQ(d->attempts[0].attempt, 0);
  EXPECT_STREQ(d->attempts[0].outcome, "timeout");
  EXPECT_DOUBLE_EQ(to_seconds(d->attempts[0].end), 3.5);
  EXPECT_EQ(d->attempts[1].attempt, 1);
  EXPECT_STREQ(d->attempts[1].outcome, "response");
  // The backoff gap is the space between attempt 0's close (3.5) and
  // attempt 1's start (4.5).
  EXPECT_DOUBLE_EQ(to_seconds(d->attempts[1].start), 4.5);

  ASSERT_EQ(d->path_activity.size(), 2u);
  const auto& wifi = d->path_activity.at(0);
  ASSERT_EQ(wifi.size(), 2u);  // merged triple + distant fourth delivery
  EXPECT_DOUBLE_EQ(to_seconds(wifi[0].first), 5.0);
  EXPECT_DOUBLE_EQ(to_seconds(wifi[0].second), 5.065);
  EXPECT_DOUBLE_EQ(to_seconds(wifi[1].first), 6.5);
  ASSERT_EQ(d->path_activity.at(1).size(), 1u);

  // The span with no deliveries has no activity rows; its lone attempt
  // stays open and extends to the span end.
  const ChunkTimeline* d2 = model.find(2);
  ASSERT_NE(d2, nullptr);
  EXPECT_TRUE(d2->path_activity.empty());
  ASSERT_EQ(d2->attempts.size(), 1u);
  EXPECT_EQ(d2->attempts[0].outcome, nullptr);
  EXPECT_DOUBLE_EQ(to_seconds(d2->attempts[0].end), 9.0);

  // Rendering: both spans appear, attempts row shows the retry glyphs.
  const std::string text = render_flame(model, 60);
  EXPECT_NE(text.find("span 1 chunk 0"), std::string::npos);
  EXPECT_NE(text.find("span 2 chunk 1"), std::string::npos);
  EXPECT_NE(text.find("http x2"), std::string::npos);
  EXPECT_NE(text.find("path 0"), std::string::npos);
  EXPECT_NE(text.find("path 1"), std::string::npos);
  EXPECT_NE(text.find('~'), std::string::npos);  // backoff gap
  EXPECT_NE(text.find('x'), std::string::npos);  // timeout glyph
  EXPECT_NE(text.find('o'), std::string::npos);  // response glyph
}

// Subflow updates are connection-scoped: the model keeps every sample per
// path (each still counts as a record outside any span), and the flame
// view gives each span the samples inside its own [start, end] window.
TEST(Flame, SubflowSamplesSliceBySpanWindow) {
  const auto sample = [](double at_s, int path, double cwnd) {
    TraceRecord r = rec(TraceType::kSubflowUpdate, at_s);
    r.path_id = path;
    r.cwnd = cwnd;
    r.srtt_ms = 40.0;
    return r;
  };
  std::vector<TraceRecord> trace;
  trace.push_back(sample(0.5, 0, 5.0));  // before any span
  trace.push_back(span_start(1, 1.0, "chunk", 0, 1, 1000, 0.0));
  trace.push_back(sample(1.5, 0, 10.0));
  trace.push_back(sample(1.6, 1, 4.0));
  trace.push_back(span_end(1, 2.0, "delivered", 1000));
  trace.push_back(span_start(2, 3.0, "chunk", 1, 1, 1000, 0.0));
  trace.push_back(sample(3.5, 0, 20.0));
  trace.push_back(span_end(2, 4.0, "delivered", 1000));

  const SpanModel model = build_span_model(trace);
  EXPECT_EQ(model.records, trace.size());
  EXPECT_EQ(model.unspanned_records, 4u);
  ASSERT_EQ(model.subflow.size(), 2u);
  ASSERT_EQ(model.subflow.at(0).size(), 3u);
  EXPECT_DOUBLE_EQ(model.subflow.at(0)[1].cwnd, 10.0);
  ASSERT_EQ(model.subflow.at(1).size(), 1u);

  const std::string text = render_flame(model, 40);
  EXPECT_NE(text.find("cwnd 10..10"), std::string::npos);  // span 1, path 0
  EXPECT_NE(text.find("cwnd 4..4"), std::string::npos);    // span 1, path 1
  EXPECT_NE(text.find("cwnd 20..20"), std::string::npos);  // span 2, path 0
  EXPECT_EQ(text.find("cwnd 5..5"), std::string::npos);    // in no window
  ASSERT_NE(text.find("  sf 1"), std::string::npos);
  EXPECT_EQ(text.find("  sf 1"), text.rfind("  sf 1"));  // span 1 only
}

// Golden snapshot: the flame view over an in-process pipelined session
// (3-deep prefetch window, one scripted blackout). Generating the trace
// live — instead of loading the committed jsonl fixture — captures
// kSubflowUpdate records too, so the snapshot locks the subflow
// cwnd/RTT rows alongside the span/http/path nesting. The simulation is
// fully deterministic, so the rendering is bitwise stable.
TEST(Flame, GoldenPipelinedSnapshot) {
  ChaosConfig cfg;
  cfg.chunk_count = 8;
  cfg.session.inflight = 3;

  FaultPlan plan;
  FaultEvent blackout;
  blackout.kind = FaultKind::kBlackout;
  blackout.at = kTimeZero + seconds(6.0);
  blackout.duration = seconds(4.0);
  blackout.path_id = 1;
  plan.events.push_back(blackout);

  // The span model's records plus the subflow rows' kSubflowUpdate.
  Telemetry telemetry;
  SpanModelBuilder spans;
  TypeFilterSink filter(
      &spans, span_model_trace_mask() |
                  (1u << static_cast<unsigned>(TraceType::kSubflowUpdate)));
  telemetry.add_sink(&filter);

  Scenario scenario(resolve_scenario_config(cfg.session, 7));
  SessionConfig scfg = resolve_session_config(cfg.session, 7);
  SessionEnv env;
  env.telemetry = &telemetry;
  env.faults = &plan;
  run_streaming_session(scenario, chaos_video(cfg), scfg, env);
  telemetry.remove_sink(&filter);

  SpanModel model = spans.finish();
  attribute_misses(&model);
  const std::string got = render_flame(model, 72);
  ASSERT_FALSE(got.empty());
  // The satellite this snapshot locks: a subflow congestion row under
  // each path's transmit-activity row.
  EXPECT_NE(got.find("  sf 0"), std::string::npos);
  EXPECT_NE(got.find("cwnd "), std::string::npos);

  const std::string golden =
      std::string(MPDASH_TEST_DATA_DIR) + "/pipelined_flame.txt";
  if (std::getenv("MPDASH_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden.c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << golden;
    std::fwrite(got.data(), 1, got.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "fixture updated: " << golden
                 << " — review and commit the diff";
  }
  std::string want;
  ASSERT_TRUE(read_file(golden, &want))
      << "missing fixture " << golden
      << "; run with MPDASH_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(got, want)
      << "flame rendering diverged from the committed snapshot. If the "
      << "change is intentional, regenerate with MPDASH_UPDATE_GOLDEN=1 "
      << "and commit the new fixture.";
}

// A builder attached while a pipelined chaos run emits (the live fold)
// and build_span_model over the same records captured (the batch fold)
// attribute every span alike.
TEST(SpanModelBuilder, LiveFoldEqualsBatchFold) {
  ChaosConfig cfg;
  cfg.session.inflight = 3;
  const std::uint64_t seed = derive_run_seed(4, "chaos/0");
  Telemetry telemetry;
  SpanModelBuilder builder;
  TraceCollector collector;
  TypeFilterSink live(&builder, span_model_trace_mask());
  TypeFilterSink batch(&collector, span_model_trace_mask());
  telemetry.add_sink(&live);
  telemetry.add_sink(&batch);
  run_chaos_single(cfg, chaos_video(cfg), seed,
                   random_fault_plan(seed, cfg.plan), telemetry);
  telemetry.remove_sink(&live);
  telemetry.remove_sink(&batch);

  SpanModel streamed = builder.finish();
  SpanModel folded = build_span_model(collector.records());
  attribute_misses(&streamed);
  attribute_misses(&folded);
  const RollupRow row = rollup_span_model(streamed, "4");
  EXPECT_GT(row.misses, 0);
  EXPECT_EQ(spans_to_csv(streamed), spans_to_csv(folded));
  EXPECT_EQ(rollup_to_csv({row}),
            rollup_to_csv({rollup_span_model(folded, "4")}));
}

// --- tentpole: campaign roll-up -----------------------------------------

TEST(Rollup, SourceKeyPrefersNumericSeedSuffix) {
  EXPECT_EQ(rollup_source_key("chaos_artifacts/chaos.jsonl.17"), "17");
  EXPECT_EQ(rollup_source_key("chaos8.jsonl.17"), "17");  // same seed, same key
  EXPECT_EQ(rollup_source_key("/a/b/run.jsonl"), "run.jsonl");
  EXPECT_EQ(rollup_source_key("trace.jsonl"), "trace.jsonl");
  EXPECT_EQ(rollup_source_key("noext"), "noext");
}

TEST(Rollup, CsvColumnsFollowPrecedenceAndIncludeTotal) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 0.0, "chunk", 0, 1, 1000, 1.0));
  trace.push_back(fault_edge(0.5, "blackout", 0, true));
  trace.push_back(fault_edge(2.0, "blackout", 0, false));
  trace.push_back(span_end(1, 5.0, "abandoned", 0));
  trace.push_back(span_start(2, 5.0, "chunk", 1, 1, 1000, 4.0));
  trace.push_back(span_end(2, 6.0, "delivered", 1000));
  SpanModel model = build_span_model(trace);
  attribute_misses(&model);

  std::vector<RollupRow> rows;
  rows.push_back(rollup_span_model(model, "7"));
  const std::string csv = rollup_to_csv(rows);
  const auto parsed = parse_csv(csv);
  ASSERT_EQ(parsed.size(), 3u);  // header, seed row, total row
  EXPECT_EQ(parsed[0][0], "key");
  EXPECT_EQ(parsed[0][4], "fault_blackout");
  EXPECT_EQ(parsed[1][0], "7");
  EXPECT_EQ(parsed[1][1], "2");  // spans
  EXPECT_EQ(parsed[1][2], "1");  // misses
  EXPECT_EQ(parsed[1][4], "1");  // fault_blackout count
  EXPECT_EQ(parsed[2][0], "total");
  EXPECT_EQ(parsed[2][1], "2");
  EXPECT_EQ(parsed[2][2], "1");
  // miss_rate is shortest-round-trip, parseable back to exactly 0.5.
  EXPECT_EQ(std::strtod(parsed[1][3].c_str(), nullptr), 0.5);
}

// In-process jobs invariance: the chaos campaign's attribution roll-up
// must be bitwise identical across worker counts (the 50-seed CI gate is
// this property at scale).
TEST(Rollup, ChaosAttributionIsJobsInvariant) {
  ChaosConfig cfg;
  cfg.seed_count = 4;
  cfg.chunk_count = 8;
  cfg.attribution = true;
  cfg.progress = nullptr;

  auto rollup_at = [&cfg](int jobs) {
    cfg.jobs = jobs;
    const ChaosCampaignResult res = run_chaos_campaign(cfg);
    std::vector<RollupRow> rows;
    for (const ChaosRunResult& r : res.runs) {
      EXPECT_TRUE(r.has_attribution);
      rows.push_back(r.attribution);
    }
    return rollup_to_csv(rows);
  };
  const std::string serial = rollup_at(1);
  const std::string parallel = rollup_at(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);

  // One row per seed plus the total; keys are the derived run seeds.
  const auto rows = parse_csv(serial);
  ASSERT_EQ(rows.size(), 2u + 4u);  // header + 4 seeds + total
  for (std::size_t i = 1; i + 1 < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].find_first_not_of("0123456789"),
              std::string::npos);
  }
  EXPECT_EQ(rows.back()[0], "total");
}

// The attribution time series the field benches emit: spans bucketed by
// end time, columns in precedence order, keys quoted when needed.
TEST(Rollup, AttributionSeriesBucketsByEndTime) {
  std::vector<TraceRecord> trace;
  trace.push_back(span_start(1, 1.0, "chunk", 0, 1, 1000, 1.0));
  trace.push_back(span_end(1, 12.0, "abandoned", 0));
  trace.push_back(span_start(2, 12.0, "chunk", 1, 1, 1000, 30.0));
  trace.push_back(span_end(2, 14.0, "delivered", 1000));
  SpanModel model = build_span_model(trace);
  attribute_misses(&model);

  const std::string csv =
      attribution_series_csv(model, 10.0, "loc,ation/festive/rate");
  const auto rows = parse_csv(std::string(kAttribSeriesHeader) + csv);
  ASSERT_EQ(rows.size(), 2u);  // header + one bucket (both spans end in it)
  EXPECT_EQ(rows[1][0], "loc,ation/festive/rate");  // comma survived quoting
  EXPECT_EQ(std::strtod(rows[1][1].c_str(), nullptr), 10.0);
  EXPECT_EQ(rows[1][2], "2");  // spans ended
  EXPECT_EQ(rows[1][3], "1");  // misses
}

}  // namespace
}  // namespace mpdash
