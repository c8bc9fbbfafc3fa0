#pragma once
// Shared helpers for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from the paper's evaluation (§7); these
// utilities build the scenarios and format results the way the paper
// reports them.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rollup.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "runner/campaign.h"
#include "telemetry/trace_sink.h"
#include "trace/locations.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace mpdash::bench {

// Shared `--jobs N` / `--jobs=N` flag for the campaign-based benches: a
// whole integer >= 0 (0 = auto: MPDASH_JOBS env, then hardware concurrency
// — see resolve_jobs()). Anything else exits 2 with the usage line.
inline int parse_jobs(int argc, char** argv) {
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const char* value = nullptr;
    if (flag == "--jobs" && i + 1 < argc) {
      value = argv[++i];
    } else if (flag.starts_with("--jobs=")) {
      value = argv[i] + 7;
    }
    if (value == nullptr || !parse_jobs_value(value, &jobs)) {
      std::fprintf(stderr, "usage: %s [--jobs N]\n", argv[0]);
      std::exit(2);
    }
  }
  return jobs;
}

// MPDASH_QUICK=1 trims session lengths for fast smoke runs; default is
// the paper's full 10-minute videos.
inline bool quick_mode() {
  const char* env = std::getenv("MPDASH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline Video bench_video(Video (*preset)(Duration) = big_buck_bunny,
                         Duration chunk = seconds(4.0)) {
  Video full = preset(chunk);
  if (!quick_mode()) return full;
  // Quick mode: first quarter of the video.
  std::vector<DataRate> rates;
  for (const auto& lv : full.levels()) rates.push_back(lv.avg_bitrate);
  return Video(full.name(), full.chunk_duration(),
               std::max(20, full.chunk_count() / 4), std::move(rates), 0.12,
               42);
}

// Bench id registered by print_header(); names the BENCH_<id>.json file.
inline std::string& current_bench_id() {
  static std::string id;
  return id;
}

// MPDASH_BENCH_JSON=1 appends one metrics snapshot per run_scheme() call
// to BENCH_<id>.json (JSON lines, one object per run).
inline bool bench_json_enabled() {
  const char* env = std::getenv("MPDASH_BENCH_JSON");
  return env != nullptr && env[0] == '1';
}

// MPDASH_BENCH_ATTRIB=<path> makes the field-study benches capture the
// span-model record set per cell and write per-location deadline-miss
// attribution time series (kAttribSeriesHeader rows) to <path>. Rows are
// assembled in add-order like the JSON lines, so the file is bitwise
// identical for any --jobs value.
inline const char* bench_attrib_path() {
  const char* env = std::getenv("MPDASH_BENCH_ATTRIB");
  return (env != nullptr && env[0] != '\0') ? env : nullptr;
}

// Attribution time-series bucket: coarse enough that a 10-minute session
// yields a handful of rows per cell, not thousands.
inline constexpr double kBenchAttribBucketS = 10.0;

inline std::string bench_snapshot_line(Telemetry& telemetry, Scheme scheme,
                                       const std::string& algo,
                                       double session_s) {
  const std::string id =
      current_bench_id().empty() ? "bench" : current_bench_id();
  const MetricsSnapshot snap =
      telemetry.metrics().snapshot(TimePoint(seconds(session_s)));
  return "{\"bench\":" + json_quote(id) + ",\"scheme\":\"" +
         to_string(scheme) + "\",\"adaptation\":" + json_quote(algo) +
         ",\"snapshot\":" + snap.to_json() + "}\n";
}

// Appends pre-rendered JSON lines to BENCH_<id>.json. Campaign benches
// buffer one line per run and flush here in add-order after the pool
// drains, so the file contents do not depend on the job count.
inline void append_bench_lines(const std::string& lines) {
  if (lines.empty()) return;
  const std::string id =
      current_bench_id().empty() ? "bench" : current_bench_id();
  std::FILE* f = std::fopen(("BENCH_" + id + ".json").c_str(), "a");
  if (!f) return;
  std::fwrite(lines.data(), 1, lines.size(), f);
  std::fclose(f);
}

// One trailer line per campaign: wall-clock, serial estimate (sum of
// per-run times), and the realized speedup, so BENCH_*.json tracks the
// parallelism win over time alongside the per-run metric snapshots.
inline void append_campaign_summary(const CampaignStats& stats) {
  if (!bench_json_enabled()) return;
  const std::string id =
      current_bench_id().empty() ? "bench" : current_bench_id();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"bench\":%s,\"campaign\":{\"runs\":%d,\"jobs\":%d,"
                "\"failures\":%d,\"wall_s\":%.3f,\"serial_est_s\":%.3f,"
                "\"speedup\":%.2f}}\n",
                json_quote(id).c_str(), stats.runs, stats.jobs,
                stats.failures, stats.wall_s, stats.run_wall_sum_s,
                stats.speedup());
  append_bench_lines(buf);
}

// Runs one (scenario, scheme, algorithm) cell. When `json_out` is given,
// the MPDASH_BENCH_JSON snapshot line is returned through it instead of
// written immediately — required inside campaign workers, where direct
// file appends would interleave nondeterministically. When `attrib_out`
// is given, the cell additionally captures the span-model record set,
// runs deadline-miss attribution, and returns attribution time-series
// rows keyed by `attrib_key` (same buffering contract as `json_out`).
inline SessionResult run_scheme(const ScenarioConfig& net, const Video& video,
                                Scheme scheme, const std::string& algo,
                                bool record = false,
                                std::string* json_out = nullptr,
                                std::string* attrib_out = nullptr,
                                const std::string& attrib_key = {}) {
  Scenario scenario(net);
  SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.adaptation = algo;
  cfg.record_trace = record;
  Telemetry telemetry;
  SessionEnv env;
  if (bench_json_enabled()) env.telemetry = &telemetry;
  TraceCollector attrib_capture;
  TypeFilterSink attrib_filter(&attrib_capture, span_model_trace_mask());
  if (attrib_out != nullptr) {
    env.telemetry = &telemetry;
    telemetry.add_sink(&attrib_filter);
  }
  SessionResult res = run_streaming_session(scenario, video, cfg, env);
  if (attrib_out != nullptr) {
    telemetry.remove_sink(&attrib_filter);
    SpanModel model = build_span_model(attrib_capture.records());
    attribute_misses(&model, kWifiPathId);
    *attrib_out =
        attribution_series_csv(model, kBenchAttribBucketS, attrib_key);
  }
  if (bench_json_enabled()) {
    const std::string line =
        bench_snapshot_line(telemetry, scheme, algo, res.session_s);
    if (json_out != nullptr) {
      *json_out = line;
    } else {
      append_bench_lines(line);
    }
  }
  return res;
}

inline double saving(double baseline, double value) {
  if (baseline <= 0.0) return 0.0;
  return (baseline - value) / baseline;
}

inline std::string mb(Bytes b) {
  return TextTable::num(static_cast<double>(b) / 1e6, 2);
}

inline void print_header(const char* id, const char* what) {
  std::string& bench = current_bench_id();
  bench = id;
  for (char& c : bench) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id, what);
  std::printf("==========================================================\n");
}

inline void print_cdf(const char* title, std::vector<double> values) {
  std::printf("%s\n", title);
  std::printf("  p10=%.1f%%  p25=%.1f%%  p50=%.1f%%  p75=%.1f%%  p90=%.1f%%\n",
              percentile(values, 10) * 100, percentile(values, 25) * 100,
              percentile(values, 50) * 100, percentile(values, 75) * 100,
              percentile(values, 90) * 100);
}

}  // namespace mpdash::bench
