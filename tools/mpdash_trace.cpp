// mpdash_trace — causal-span trace analyzer.
//
// Loads a JSONL trace written by `mpdash_sim --trace`, reconstructs the
// per-chunk span timelines, renders per-layer latency waterfalls or a
// Gantt/flame view, and runs the deadline-miss attribution pass
// (scheduler-late vs fault-blackout vs retry-backoff vs
// bandwidth-shortfall). Traces without span records (older captures,
// golden fixtures) still load: the tool reports fault windows and record
// counts and exits 0.
//
//   mpdash_trace run.jsonl                    # summary + attribution
//   mpdash_trace run.jsonl --waterfall        # per-chunk latency bars
//   mpdash_trace run.jsonl --flame            # Gantt bars + nested HTTP
//                                             # attempts / path activity
//   mpdash_trace run.jsonl --csv spans.csv    # one row per span
//   mpdash_trace run.jsonl --preferred-path 0 # Algorithm 1's cheap path
//
// Campaign roll-up mode aggregates attribution over many traces (files,
// directories, or a shell glob) into per-cause miss rates keyed by seed:
//
//   mpdash_trace rollup chaos_artifacts/            # scan dir for .jsonl
//   mpdash_trace rollup chaos.jsonl.* --csv roll.csv

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/render.h"
#include "analysis/rollup.h"
#include "analysis/spans.h"
#include "telemetry/trace_sink.h"
#include "util/csv.h"
#include "util/table.h"

using namespace mpdash;

namespace {

struct Args {
  bool rollup = false;
  std::vector<std::string> inputs;  // analyze: exactly one trace file
  std::string csv_path;
  bool waterfall = false;
  bool flame = false;
  int preferred_path = 0;
  int width = 72;  // waterfall/flame bar columns
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mpdash_trace <trace.jsonl> [options]\n"
               "       mpdash_trace rollup <file|dir>... [options]\n"
               "  --waterfall          render per-chunk latency waterfalls\n"
               "  --flame              Gantt/flame view: span bars on a "
               "shared time axis\n"
               "                       with nested HTTP attempts and "
               "per-path activity\n"
               "  --csv <path>         analyze: one CSV row per span; "
               "rollup: per-seed\n"
               "                       per-cause miss rates\n"
               "  --preferred-path <n> Algorithm 1's always-on path, an "
               "integer >= 0\n"
               "                       (default 0 = WiFi)\n"
               "  --width <cols>       waterfall/flame width, an integer in "
               "[20, 1000]\n"
               "                       (default 72)\n"
               "  -h, --help           this text (exit 0)\n");
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n\n", msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

// Integer flag values must be whole tokens in [lo, hi]: "x", "3x", "" and
// out-of-range values exit 2 instead of being read as a prefix or as 0.
int parse_int(const std::string& flag, const std::string& text, int lo,
              int hi) {
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    usage_error("bad " + flag + " value '" + text + "'");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--waterfall") {
      a.waterfall = true;
    } else if (arg == "--flame") {
      a.flame = true;
    } else if (arg == "--csv") {
      a.csv_path = next();
    } else if (arg == "--preferred-path") {
      a.preferred_path =
          parse_int(arg, next(), 0, std::numeric_limits<int>::max());
    } else if (arg == "--width") {
      a.width = parse_int(arg, next(), 20, 1000);
    } else if (arg == "--help" || arg == "-h") {
      // Explicit help is a success, not a usage error.
      print_usage(stdout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (arg == "rollup" && a.inputs.empty() && !a.rollup) {
      a.rollup = true;
    } else if (a.rollup || a.inputs.empty()) {
      a.inputs.push_back(arg);
    } else {
      usage_error("more than one trace file (did you mean 'rollup'?)");
    }
  }
  if (a.inputs.empty()) {
    usage_error(a.rollup ? "rollup needs at least one file or directory"
                         : "no trace file given");
  }
  return a;
}

void print_summary(const SpanModel& model,
                   const std::vector<TraceRecord>& trace) {
  std::map<std::string, std::size_t> by_type;
  for (const TraceRecord& r : trace) ++by_type[to_string(r.type)];
  std::printf("trace: %zu records (%zu outside any span), %.3f s\n",
              model.records, model.unspanned_records,
              to_seconds(model.trace_end));
  for (const auto& [name, count] : by_type) {
    std::printf("  %-16s %zu\n", name.c_str(), count);
  }
  std::printf("spans: %zu\n", model.spans.size());
  if (!model.faults.empty()) {
    std::printf("fault windows:\n");
    for (const FaultWindow& w : model.faults) {
      std::printf("  %-13s %s %-7s %8.3f s -> %8.3f s%s\n",
                  w.kind ? w.kind : "?",
                  w.server_scoped() ? "server" : "path",
                  w.server_scoped()
                      ? ""
                      : std::to_string(w.path_id).c_str(),
                  to_seconds(w.start), to_seconds(w.end),
                  w.closed ? "" : " (unclosed)");
    }
  }
}

void print_attribution(const SpanModel& model) {
  int misses = 0;
  for (const ChunkTimeline& t : model.spans) {
    if (t.cause != MissCause::kNone) ++misses;
  }
  std::printf("\ndeadline-miss attribution: %d missed of %zu spans\n",
              misses, model.spans.size());
  for (const auto& [cause, count] : attribution_counts(model)) {
    std::printf("  %-20s %d\n", to_string(cause), count);
  }
  if (misses == 0) return;
  std::printf("\n%-5s %-6s %-9s %-9s %-20s evidence\n", "span", "chunk",
              "elapsed", "deadline", "cause");
  for (const ChunkTimeline& t : model.spans) {
    if (t.cause == MissCause::kNone) continue;
    std::string evidence;
    if (t.http_timeouts > 0 || t.http_retries > 0) {
      evidence += "http " + std::to_string(t.http_timeouts) + " timeouts/" +
                  std::to_string(t.http_retries) + " retries; ";
    }
    if (t.chunk_retries > 0) {
      evidence += std::to_string(t.chunk_retries) + " downshifts; ";
    }
    if (t.stalls_started > 0) {
      evidence += std::to_string(t.stalls_started) + " stall(s); ";
    }
    if (t.dominant_fault_kind != nullptr) {
      evidence += std::string(t.dominant_fault_kind) + " overlap; ";
    }
    if (t.sched_engaged && !t.costly_enabled) {
      evidence += "costly path never enabled; ";
    } else if (t.costly_enabled) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "costly enabled +%.2fs; ",
                    to_seconds(t.first_costly_enable - t.start));
      evidence += buf;
    }
    if (!t.closed()) evidence += "trace ended mid-flight; ";
    if (t.status) evidence += std::string(t.status);
    std::printf("%-5llu %-6d %8.3fs %8.3fs %-20s %s\n",
                static_cast<unsigned long long>(t.span), t.chunk,
                t.elapsed_s(), t.deadline_s, to_string(t.cause),
                evidence.c_str());
  }
}

// One bar per span: '.' = waiting for the scheduler/first byte, '=' =
// bytes flowing, '#' = the tail after the last byte (playback handoff),
// '!' marks the deadline column when it falls inside the bar.
void print_waterfall(const SpanModel& model, int width) {
  double max_elapsed = 0.0;
  for (const ChunkTimeline& t : model.spans) {
    max_elapsed = std::max(max_elapsed, t.elapsed_s());
  }
  if (max_elapsed <= 0.0) {
    std::printf("\nno spans to render\n");
    return;
  }
  std::printf("\nwaterfall (%.3fs full width):\n", max_elapsed);
  std::printf("%-5s %-6s %-9s %-6s bar\n", "span", "chunk", "status",
              "lvl");
  for (const ChunkTimeline& t : model.spans) {
    const double scale = static_cast<double>(width) / max_elapsed;
    auto col = [&](TimePoint at) {
      const double s = to_seconds(at - t.start);
      return std::clamp(static_cast<int>(s * scale), 0, width - 1);
    };
    const int len =
        std::max(1, std::clamp(static_cast<int>(t.elapsed_s() * scale), 1,
                               width));
    std::string bar(static_cast<std::size_t>(len), '.');
    if (t.have_bytes) {
      const int b0 = col(t.first_byte), b1 = col(t.last_byte);
      for (int i = b0; i <= b1 && i < len; ++i) bar[i] = '=';
      for (int i = b1 + 1; i < len; ++i) bar[i] = '#';
    }
    if (t.deadline_s > 0.0) {
      const int d = static_cast<int>(t.deadline_s * scale);
      if (d >= 0 && d < len) bar[d] = '!';
    }
    Bytes wifi = 0, other = 0;
    for (const auto& [path, bytes] : t.bytes_by_path) {
      (path == 0 ? wifi : other) += bytes;
    }
    std::printf("%-5llu %-6d %-9s %-6d %s",
                static_cast<unsigned long long>(t.span), t.chunk,
                t.status ? t.status : "open", t.level, bar.c_str());
    if (other > 0) {
      std::printf("  [%lld wifi / %lld costly]",
                  static_cast<long long>(wifi),
                  static_cast<long long>(other));
    }
    if (t.cause != MissCause::kNone) {
      std::printf("  <- %s", to_string(t.cause));
    }
    std::printf("\n");
  }
}

int run_analyze(const Args& args) {
  std::vector<TraceRecord> trace;
  std::string err;
  if (!load_trace_jsonl(args.inputs.front(), &trace, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  SpanModel model = build_span_model(trace);
  attribute_misses(&model, args.preferred_path);

  print_summary(model, trace);
  if (!model.spans.empty()) print_attribution(model);
  if (args.waterfall) print_waterfall(model, args.width);
  if (args.flame) {
    const FlameModel flame = build_flame_model(trace, model);
    std::printf("\n%s", render_flame(model, flame, args.width).c_str());
  }
  if (!args.csv_path.empty()) {
    if (!write_file(args.csv_path, spans_to_csv(model))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.csv_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu span rows to %s\n", model.spans.size(),
                args.csv_path.c_str());
  }
  return 0;
}

// Expands rollup operands: directories contribute every contained
// ".jsonl"-named file. The combined list is ordered by roll-up key
// (rollup_key_less), so the CSV is identical no matter how the shell or
// the filesystem ordered the inputs — and identical across jobs-1 vs
// jobs-8 artifact sets whose base names differ but whose seed suffixes
// match.
std::vector<std::string> expand_rollup_inputs(
    const std::vector<std::string>& inputs, std::string* err) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      for (const auto& entry : fs::directory_iterator(in, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".jsonl") != std::string::npos) {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        *err = "cannot scan directory " + in + ": " + ec.message();
        return {};
      }
    } else if (fs::is_regular_file(in, ec)) {
      files.push_back(in);
    } else {
      *err = "no such file or directory: " + in;
      return {};
    }
  }
  std::sort(files.begin(), files.end(),
            [](const std::string& a, const std::string& b) {
              const std::string ka = rollup_source_key(a);
              const std::string kb = rollup_source_key(b);
              return ka != kb ? rollup_key_less(ka, kb) : a < b;
            });
  return files;
}

int run_rollup(const Args& args) {
  std::string err;
  const std::vector<std::string> files =
      expand_rollup_inputs(args.inputs, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  if (files.empty()) {
    std::fprintf(stderr, "error: no .jsonl traces found\n");
    return 1;
  }

  std::vector<RollupRow> rows;
  rows.reserve(files.size());
  for (const std::string& path : files) {
    std::vector<TraceRecord> trace;
    if (!load_trace_jsonl(path, &trace, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    SpanModel model = build_span_model(trace);
    attribute_misses(&model, args.preferred_path);
    rows.push_back(rollup_span_model(model, rollup_source_key(path)));
  }

  std::vector<std::string> header = {"key", "spans", "misses", "miss%"};
  for (const MissCause c : kMissCausePrecedence) {
    header.push_back(to_string(c));
  }
  TextTable table(header);
  auto add_row = [&table](const RollupRow& row) {
    std::vector<std::string> cells = {row.key, std::to_string(row.spans),
                                      std::to_string(row.misses),
                                      TextTable::pct(row.miss_rate(), 1)};
    for (const auto& [cause, count] : row.counts) {
      cells.push_back(std::to_string(count));
    }
    table.add_row(cells);
  };
  for (const RollupRow& row : rows) add_row(row);
  add_row(rollup_total(rows));
  std::printf("rollup: %zu trace(s)\n%s", files.size(),
              table.render().c_str());

  if (!args.csv_path.empty()) {
    if (!write_file(args.csv_path, rollup_to_csv(rows))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.csv_path.c_str());
      return 1;
    }
    std::printf("wrote %zu roll-up rows to %s\n", rows.size(),
                args.csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  return args.rollup ? run_rollup(args) : run_analyze(args);
}
