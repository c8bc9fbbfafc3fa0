#pragma once
// Shared helpers for the paper-reproduction benches. Each bench binary
// regenerates one table or figure from the paper's evaluation (§7); these
// utilities build the scenarios and format results the way the paper
// reports them.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rollup.h"
#include "dash/video.h"
#include "exp/field_study.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "runner/campaign.h"
#include "trace/locations.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace mpdash::bench {

// Shared `--jobs N` / `--jobs=N` flag for the campaign-based benches: a
// whole integer >= 0 (0 = auto: MPDASH_JOBS env, then hardware concurrency
// — see resolve_jobs()). Anything else, a malformed MPDASH_JOBS included,
// exits 2 with the usage line.
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
  try {
    return resolve_jobs(jobs);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [--jobs N]\n", e.what(),
                 argv[0]);
    std::exit(2);
  }
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
// or field-study cell to BENCH_<id>.json (JSON lines, one object per run).
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

// `snapshot` is a MetricsSnapshot::to_json() object.
inline std::string bench_snapshot_line(const std::string& snapshot,
                                       Scheme scheme,
                                       const std::string& algo) {
  const std::string id =
      current_bench_id().empty() ? "bench" : current_bench_id();
  return "{\"bench\":" + json_quote(id) + ",\"scheme\":\"" +
         to_string(scheme) + "\",\"adaptation\":" + json_quote(algo) +
         ",\"snapshot\":" + snapshot + "}\n";
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

// Runs one (scenario, scheme, algorithm) cell; `sink` (borrowed, null =
// none) sees the run's trace records as they are emitted. When `json_out`
// is given, the MPDASH_BENCH_JSON snapshot line is returned through it
// instead of written immediately — required inside campaign workers,
// where direct file appends would interleave nondeterministically.
inline SessionResult run_scheme(const ScenarioConfig& net, const Video& video,
                                Scheme scheme, const std::string& algo,
                                TraceSink* sink = nullptr,
                                std::string* json_out = nullptr) {
  Scenario scenario(net);
  SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.adaptation = algo;
  Telemetry telemetry;
  telemetry.add_sink(sink);
  SessionEnv env;
  if (sink != nullptr || bench_json_enabled()) env.telemetry = &telemetry;
  SessionResult res = run_streaming_session(scenario, video, cfg, env);
  if (bench_json_enabled()) {
    const std::string line = bench_snapshot_line(
        telemetry.metrics().snapshot(seconds(res.session_s)).to_json(),
        scheme, algo);
    if (json_out != nullptr) {
      *json_out = line;
    } else {
      append_bench_lines(line);
    }
  }
  return res;
}

// The field study (exp/field_study.h) of Figures 9/10 and Table 5 with the
// bench video. Writes the MPDASH_BENCH_JSON lines and MPDASH_BENCH_ATTRIB
// series from the cells in add order, so both files are bitwise identical
// for any job count. A failed cell (named on stderr) exits 1.
inline std::vector<LocationOutcome> bench_field_study(
    std::vector<LocationProfile> locations, int jobs) {
  const char* attrib_path = bench_attrib_path();
  FieldStudyResult study = run_field_study(
      {.locations = std::move(locations),
       .jobs = jobs,
       .metrics = bench_json_enabled(),
       .attribution = attrib_path != nullptr},
      bench_video());
  if (study.stats.failures > 0) std::exit(1);
  std::string json_lines, rows(kAttribSeriesHeader);
  for (const LocationOutcome& o : study.locations) {
    for (const FieldStudyCell& c : o.cells) {
      if (!c.metrics.empty()) {
        json_lines += bench_snapshot_line(c.metrics, c.scheme, c.algorithm);
      }
      rows += c.attribution;
    }
  }
  append_bench_lines(json_lines);
  append_campaign_summary(study.stats);
  // stderr, like the progress lines: stdout must stay bitwise identical
  // across runs that write to differently named files.
  if (attrib_path != nullptr) {
    std::fprintf(stderr,
                 write_file(attrib_path, rows)
                     ? "attribution series written to %s\n"
                     : "cannot write %s\n",
                 attrib_path);
  }
  return std::move(study.locations);
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
