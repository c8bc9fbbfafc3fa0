// mpdash_sim — command-line driver for the MP-DASH simulator.
//
// Subcommands are table-driven (kCommands): `mpdash_sim --help` lists them,
// `mpdash_sim <command> --help` prints that command's options, and unknown
// commands exit 2. Bandwidth can come from constants, built-in location
// profiles, or trace CSV files (time_s,rate_mbps — see trace/trace_io.h).
//
//   mpdash_sim stream --scheme mpdash-rate --algo festive
//       --wifi 3.8 --lte 3.0 --video bbb --csv out.csv
//   mpdash_sim download --size-mb 5 --deadline 10 --no-mpdash
//   mpdash_sim sweep --algo bba --jobs 8      # parallel field-study campaign
//   mpdash_sim chaos --seed-count 50 --jobs 8 # fault-plan invariant sweep
//   mpdash_sim fleet --sessions 16 --seed 7   # N tenants, shared bottleneck
//   mpdash_sim repro bundles/repro_<seed>.json # replay a chaos/fleet bundle

#include <algorithm>
#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "dash/video.h"
#include "exp/chaos.h"
#include "exp/fleet.h"
#include "exp/repro.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "exp/shrink.h"
#include "runner/campaign.h"
#include "telemetry/prometheus.h"
#include "telemetry/telemetry.h"
#include "trace/locations.h"
#include "trace/trace_io.h"
#include "util/csv.h"
#include "util/enum_string.h"
#include "util/stats.h"
#include "util/table.h"

using namespace mpdash;

namespace {

struct Args {
  std::string command;
  std::string input;  // positional: repro/shrink bundle path
  std::string scheme = "mpdash-rate";
  std::string algo = "festive";
  std::string video = "bbb";
  std::string location;
  std::string wifi_trace_path;
  std::string lte_trace_path;
  std::string csv_path;
  std::string metrics_path;  // per-second metrics timeline CSV
  std::string metrics_prom_path;  // final-state Prometheus exposition text
  std::string trace_path;    // structured event trace JSONL
  std::string trace_types;   // --trace-types filter (comma-separated)
  std::string series_path;   // chaos: aggregated per-run QoE series CSV
  double series_interval_s = 1.0;
  std::string attrib_path;   // chaos: per-seed miss-attribution roll-up CSV
  std::optional<double> wifi_mbps;  // unset = per-command default
  std::optional<double> lte_mbps;
  double chunk_s = 4.0;
  double alpha = 1.0;
  double size_mb = 5.0;
  double deadline_s = 10.0;
  bool use_mpdash = true;
  std::string mptcp_scheduler = "minrtt";
  int jobs = 0;  // campaign workers; 0 = MPDASH_JOBS env, then cores
  int seed_count = -1;              // campaigns; -1 = per-command default
  unsigned long long seed = 1;      // campaign base seed
  bool recovery = true;             // chaos/fleet: --no-recovery disables
  int inflight = 1;                 // player prefetch window
  int chunks = 0;                   // chaos/fleet chunk count; 0 = default
  bool keep_going = false;          // exit 0 despite bad outcomes
  std::string bundle_dir;           // repro bundles for bad runs
  bool strict = false;              // shrink: exact-string oracle
  std::string out_path;             // shrink: minimized bundle path
  // --- fleet ------------------------------------------------------------
  int sessions = 16;                // tenant count
  double stagger_s = 1.0;           // join stagger between tenants
  std::string discipline = "fq";    // shared-link arbitration: fifo|fq
  std::string mix;                  // scheme[:algo] list, cycled per tenant
  bool chaos = false;               // fleet: random fault plan per seed
};

// Table-driven subcommand registry: one row per command. `--help` renders
// the list from this table; per-command `--help` prints `usage`.
struct CommandSpec {
  const char* name;
  const char* summary;
  const char* usage;  // option help, one "  --flag ..." line each
  int (*handler)(const Args&);
};

int cmd_stream(const Args& a);
int cmd_download(const Args& a);
int cmd_sweep(const Args& a);
int cmd_chaos(const Args& a);
int cmd_fleet(const Args& a);
int cmd_repro(const Args& a);
int cmd_shrink(const Args& a);
int cmd_locations(const Args& a);

const CommandSpec kCommands[] = {
    {"stream", "one DASH streaming session, every knob on the command line",
     "  --scheme wifi-only|baseline|mpdash-rate|mpdash-duration\n"
     "  --algo gpac|festive|bba|bba-c|mpc\n"
     "  --video bbb|redbull|tears|tears-hd   --chunk <seconds>\n"
     "  --wifi <mbps> | --wifi-trace <csv>   --lte <mbps> | --lte-trace "
     "<csv>\n"
     "  --location <name from `locations`>\n"
     "  --alpha <(0,1]>  --scheduler minrtt|roundrobin\n"
     "  --inflight <n>   player prefetch window, 1 = sequential\n"
     "  --csv <path>   write the result row as CSV\n"
     "  --metrics <path>   per-second metrics timeline "
     "(CSV: time_s,metric,value)\n"
     "  --metrics-prom <path>   final metrics as Prometheus text exposition\n"
     "  --trace <path>     structured event trace (JSONL)\n"
     "  --trace-types a,b,c   keep only these record types\n",
     cmd_stream},
    {"download", "one deadline-aware file download (scheduler only, §7.2)",
     "  --size-mb <mb> --deadline <s> --no-mpdash\n"
     "  --wifi <mbps> | --wifi-trace <csv>   --lte <mbps> | --lte-trace "
     "<csv>\n"
     "  --location <name>  --alpha <(0,1]>  --scheduler minrtt|roundrobin\n"
     "  --metrics <path>  --trace <path>  --trace-types a,b,c\n",
     cmd_download},
    {"sweep", "baseline-vs-MP-DASH field-study campaign over all locations",
     "  --scheme mpdash-rate|mpdash-duration   --algo <name>\n"
     "  --video <name>  --chunk <seconds>  --alpha <(0,1]>\n"
     "  --scheduler minrtt|roundrobin\n"
     "  --jobs <n>   campaign workers (default: hardware cores)\n"
     "  --csv <path>   per-location results\n",
     cmd_sweep},
    {"chaos", "seeded random-fault campaign with per-run invariant audits",
     "  --seed-count <n> (default 50)  --seed <base>  --jobs <n>\n"
     "  --scheme <name>  --algo <name>  --scheduler <name>  --alpha <(0,1]>\n"
     "  --inflight <n>  --chunks <n>  --no-recovery\n"
     "  --csv <path>   per-seed results\n"
     "  --series <path>  per-run QoE/byte-share time series CSV\n"
     "  --series-interval <s>   series cadence (default 1.0)\n"
     "  --attrib <path>  per-seed deadline-miss attribution roll-up CSV\n"
     "  --trace <path>  per-run JSONL traces  --trace-types a,b,c\n"
     "  --bundle-dir <dir>   write repro_<seed>.json for every non-ok run\n"
     "  --keep-going   exit 0 even when runs report violations\n",
     cmd_chaos},
    {"fleet",
     "N concurrent sessions contending on one shared WiFi+LTE bottleneck",
     "  --sessions <n> (default 16)   --seed <base>   --seed-count <n> "
     "(default 1)\n"
     "  --jobs <n>   campaign workers (seeds run in parallel)\n"
     "  --scheme <name>  --algo <name>  --scheduler <name>  --alpha <(0,1]>\n"
     "               every tenant's session spec\n"
     "  --mix scheme[:algo],scheme[:algo],...   cycled per tenant "
     "(overrides --scheme/--algo)\n"
     "  --discipline fifo|fq   shared-link arbitration (default fq)\n"
     "  --wifi <mbps> --lte <mbps>   shared aggregate capacities "
     "(default 20/12)\n"
     "  --stagger <s>   join stagger between tenants (default 1.0)\n"
     "  --chunks <n>   chunks per tenant (default 20)  --no-recovery\n"
     "  --inflight <n>   every tenant's prefetch window\n"
     "  --chaos   seeded random fault plan per seed on the shared links\n"
     "  --csv <path>   per-session rows, bitwise identical for any --jobs\n"
     "  --bundle-dir <dir>   write fleet_repro_<seed>.json for non-ok runs\n"
     "               (replay with `repro`, minimize with `shrink`)\n"
     "  --keep-going   exit 0 even when runs report violations\n",
     cmd_fleet},
    {"repro", "replay a chaos or fleet bundle; verify the failure reproduces",
     "  repro <bundle.json>   repro_<seed>.json or fleet_repro_<seed>.json\n",
     cmd_repro},
    {"shrink", "ddmin-minimize a chaos or fleet repro bundle's fault plan",
     "  shrink <bundle.json>   (writes <bundle>.min.json + .log)\n"
     "  --out <path>   minimized bundle destination\n"
     "  --strict       oracle matches exact violation strings\n"
     "  --jobs <n>\n",
     cmd_shrink},
    {"locations", "list the built-in field-study location profiles", "",
     cmd_locations},
};

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

void print_usage(std::FILE* out) {
  std::fprintf(out, "usage: mpdash_sim <command> [options]\n\ncommands:\n");
  for (const CommandSpec& c : kCommands) {
    std::fprintf(out, "  %-10s %s\n", c.name, c.summary);
  }
  std::fprintf(out,
               "\nrun `mpdash_sim <command> --help` for that command's "
               "options\n");
}

void print_command_usage(const CommandSpec& c, std::FILE* out) {
  std::fprintf(out, "usage: mpdash_sim %s [options]\n%s\n%s", c.name,
               c.summary, c.usage);
}

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::fprintf(stderr, "error: %s\n\n", msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

// Whether the command's usage text lists `flag` as a whole token
// (`--seed-count` does not list `--seed`), so that text stays the one
// list of the flags each command takes.
bool usage_lists(const CommandSpec& c, const std::string& flag) {
  const std::string text = c.usage;
  for (std::size_t at = text.find(flag); at != std::string::npos;
       at = text.find(flag, at + 1)) {
    const char next = text[at + flag.size()];  // '\0' past the end
    if (!std::isalnum(static_cast<unsigned char>(next)) && next != '-') {
      return true;
    }
  }
  return false;
}

// Numeric flag values must be whole, finite tokens in the flag's range
// (`want` names it): "abc", "3x" and "" are rejected, never read as a
// prefix or as zero, and so is an out-of-range value.
template <typename T, typename InRange>
T parse_number(const std::string& flag, const std::string& text,
               const std::string& want, InRange in_range) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end ||
      !std::isfinite(static_cast<double>(v)) || !in_range(v)) {
    usage("bad " + flag + " value '" + text + "' (want " + want + ")");
  }
  return v;
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  if (std::strcmp(argv[1], "-h") == 0 || std::strcmp(argv[1], "--help") == 0) {
    print_usage(stdout);
    std::exit(0);
  }
  Args a;
  a.command = argv[1];
  const CommandSpec* spec = find_command(a.command);
  if (spec == nullptr) usage("unknown command " + a.command);
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    auto count = [&](int min) {
      return parse_number<int>(flag, value(),
                               "an integer >= " + std::to_string(min),
                               [min](int v) { return v >= min; });
    };
    auto positive = [&] {
      return parse_number<double>(flag, value(), "a number > 0",
                                  [](double v) { return v > 0.0; });
    };
    if (flag == "-h" || flag == "--help") {
      print_command_usage(*spec, stdout);
      std::exit(0);
    }
    else if (flag.rfind("--", 0) == 0 && !usage_lists(*spec, flag))
      usage(a.command + " takes no " + flag + " (see `mpdash_sim " +
            a.command + " --help`)");
    else if (flag == "--scheme") a.scheme = value();
    else if (flag == "--algo") a.algo = value();
    else if (flag == "--video") a.video = value();
    else if (flag == "--location") a.location = value();
    else if (flag == "--wifi") a.wifi_mbps = positive();
    else if (flag == "--lte") a.lte_mbps = positive();
    else if (flag == "--wifi-trace") a.wifi_trace_path = value();
    else if (flag == "--lte-trace") a.lte_trace_path = value();
    else if (flag == "--chunk") a.chunk_s = positive();
    else if (flag == "--alpha")
      a.alpha = parse_number<double>(
          flag, value(), "a number in (0, 1]",
          [](double v) { return v > 0.0 && v <= 1.0; });
    else if (flag == "--scheduler") a.mptcp_scheduler = value();
    else if (flag == "--size-mb") a.size_mb = positive();
    else if (flag == "--deadline") a.deadline_s = positive();
    else if (flag == "--no-mpdash") a.use_mpdash = false;
    else if (flag == "--jobs") a.jobs = count(0);
    else if (flag == "--seed-count") a.seed_count = count(1);
    else if (flag == "--seed")
      a.seed = parse_number<unsigned long long>(
          flag, value(), "an integer >= 0", [](auto) { return true; });
    else if (flag == "--no-recovery") a.recovery = false;
    else if (flag == "--inflight") a.inflight = count(1);
    else if (flag == "--chunks") a.chunks = count(1);
    else if (flag == "--csv") a.csv_path = value();
    else if (flag == "--metrics") a.metrics_path = value();
    else if (flag == "--metrics-prom") a.metrics_prom_path = value();
    else if (flag == "--trace") a.trace_path = value();
    else if (flag == "--trace-types") a.trace_types = value();
    else if (flag == "--series") a.series_path = value();
    else if (flag == "--series-interval") a.series_interval_s = positive();
    else if (flag == "--attrib") a.attrib_path = value();
    else if (flag == "--bundle-dir") a.bundle_dir = value();
    else if (flag == "--keep-going") a.keep_going = true;
    else if (flag == "--strict") a.strict = true;
    else if (flag == "--out") a.out_path = value();
    else if (flag == "--sessions") a.sessions = count(1);
    else if (flag == "--stagger")
      a.stagger_s = parse_number<double>(flag, value(), "a number >= 0",
                                         [](double v) { return v >= 0.0; });
    else if (flag == "--discipline") a.discipline = value();
    else if (flag == "--mix") a.mix = value();
    else if (flag == "--chaos") a.chaos = true;
    else if (!flag.empty() && flag[0] != '-' && a.input.empty())
      a.input = flag;
    else usage("unknown flag " + flag);
  }
  if (!a.input.empty() && a.command != "repro" && a.command != "shrink") {
    usage(a.command == "fleet"
              ? "fleet takes no bundle; replay or minimize one with "
                "`mpdash_sim repro <bundle>` or `mpdash_sim shrink <bundle>`"
              : "unexpected argument " + a.input);
  }
  return a;
}

Scheme parse_scheme(const std::string& s) {
  Scheme out;
  if (!enum_from_string<Scheme::kMpDashRate>(s, &out)) {
    usage("unknown scheme " + s);
  }
  return out;
}

Video pick_video(const Args& a) {
  const Duration chunk = seconds(a.chunk_s);
  if (a.video == "bbb") return big_buck_bunny(chunk);
  if (a.video == "redbull") return red_bull_playstreets(chunk);
  if (a.video == "tears") return tears_of_steel(chunk);
  if (a.video == "tears-hd") return tears_of_steel_hd(chunk);
  usage("unknown video " + a.video);
}

ScenarioConfig build_network(const Args& a, Duration horizon) {
  if (!a.location.empty()) {
    for (const auto& loc : field_study_locations()) {
      if (loc.name == a.location) return location_scenario(loc, horizon);
    }
    usage("unknown location " + a.location);
  }
  ScenarioConfig cfg =
      constant_scenario(DataRate::mbps(a.wifi_mbps.value_or(3.8)),
                        DataRate::mbps(a.lte_mbps.value_or(3.0)));
  if (!a.wifi_trace_path.empty()) cfg.wifi_down = load_trace(a.wifi_trace_path);
  if (!a.lte_trace_path.empty()) cfg.lte_down = load_trace(a.lte_trace_path);
  return cfg;
}

int cmd_locations(const Args&) {
  TextTable table({"name", "venue", "state", "scenario", "WiFi Mbps",
                   "WiFi RTT ms", "LTE Mbps", "LTE RTT ms"});
  for (const auto& loc : field_study_locations()) {
    table.add_row({loc.name, loc.venue, loc.state,
                   std::to_string(static_cast<int>(loc.scenario)),
                   TextTable::num(loc.wifi_mean.as_mbps(), 2),
                   TextTable::num(to_milliseconds(loc.wifi_rtt), 1),
                   TextTable::num(loc.lte_mean.as_mbps(), 2),
                   TextTable::num(to_milliseconds(loc.lte_rtt), 1)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

// Resolves --trace-types into a sink mask (everything when unset).
std::uint32_t trace_type_mask(const Args& a) {
  if (a.trace_types.empty()) return ~0u;
  std::uint32_t mask = 0;
  if (!parse_trace_types(a.trace_types, &mask) || mask == 0) {
    usage("bad --trace-types '" + a.trace_types +
          "' (names as in trace JSON \"type\", comma-separated)");
  }
  return mask;
}

// The --trace sink of a single run; nullptr (reported) when the file
// cannot be opened.
std::unique_ptr<JsonlSink> open_trace(const Args& a) {
  auto jsonl = std::make_unique<JsonlSink>(a.trace_path, trace_type_mask(a));
  if (jsonl->ok()) return jsonl;
  std::fprintf(stderr, "cannot write %s\n", a.trace_path.c_str());
  return nullptr;
}

// Closes a detached --trace sink; false (reported) when a write failed.
bool close_trace(const Args& a, JsonlSink& jsonl) {
  if (!jsonl.close()) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_path.c_str());
    return false;
  }
  std::printf("trace (%llu records) written to %s\n",
              static_cast<unsigned long long>(jsonl.records_written()),
              a.trace_path.c_str());
  return true;
}

int cmd_stream(const Args& a) {
  const Video video = pick_video(a);
  Scenario scenario(build_network(a, video.total_duration() + seconds(180.0)));
  SessionConfig cfg;
  cfg.scheme = parse_scheme(a.scheme);
  cfg.adaptation = a.algo;
  cfg.alpha = a.alpha;
  cfg.mptcp_scheduler = a.mptcp_scheduler;
  cfg.player.max_inflight_chunks = a.inflight;

  Telemetry telemetry;
  MetricsTimeline timeline;
  SessionEnv env;
  std::unique_ptr<JsonlSink> jsonl;
  if (!a.metrics_path.empty() || !a.metrics_prom_path.empty() ||
      !a.trace_path.empty()) {
    env.telemetry = &telemetry;
    if (!a.metrics_path.empty()) env.metrics = &timeline;
    if (!a.trace_path.empty()) {
      jsonl = open_trace(a);
      if (!jsonl) return 1;
      telemetry.add_sink(jsonl.get());
    }
  }

  const SessionResult res = run_streaming_session(scenario, video, cfg, env);

  if (!a.metrics_path.empty()) {
    if (!write_file(a.metrics_path, timeline.to_csv())) {
      std::fprintf(stderr, "cannot write %s\n", a.metrics_path.c_str());
      return 1;
    }
    std::printf("metrics timeline (%zu snapshots) written to %s\n",
                timeline.snapshots().size(), a.metrics_path.c_str());
  }
  if (!a.metrics_prom_path.empty()) {
    PrometheusOptions prom;
    prom.labels = {{"video", video.name()},
                   {"algo", a.algo},
                   {"scheme", a.scheme}};
    const MetricsSnapshot snap =
        telemetry.metrics().snapshot(TimePoint(seconds(res.session_s)));
    if (!write_file(a.metrics_prom_path, to_prometheus(snap, prom))) {
      std::fprintf(stderr, "cannot write %s\n", a.metrics_prom_path.c_str());
      return 1;
    }
    std::printf("prometheus metrics (%zu families) written to %s\n",
                snap.values.size(), a.metrics_prom_path.c_str());
  }
  if (jsonl) {
    telemetry.remove_sink(jsonl.get());
    if (!close_trace(a, *jsonl)) return 1;
  }

  std::printf("session: %s / %s / %s\n", video.name().c_str(),
              a.algo.c_str(), a.scheme.c_str());
  TextTable table({"metric", "value"});
  table.add_row({"completed", res.completed ? "yes" : "NO (time limit)"});
  table.add_row({"chunks", std::to_string(res.chunks)});
  table.add_row({"cellular MB",
                 TextTable::num(static_cast<double>(res.cell_bytes) / 1e6)});
  table.add_row({"wifi MB",
                 TextTable::num(static_cast<double>(res.wifi_bytes) / 1e6)});
  table.add_row({"cellular share", TextTable::pct(res.cell_fraction, 1)});
  table.add_row({"avg bitrate Mbps", TextTable::num(res.avg_bitrate_mbps)});
  table.add_row({"steady bitrate Mbps",
                 TextTable::num(res.steady_avg_bitrate_mbps)});
  table.add_row({"stalls", std::to_string(res.stalls)});
  table.add_row({"quality switches", std::to_string(res.switches)});
  table.add_row({"radio energy J", TextTable::num(res.energy_j(), 1)});
  table.add_row({"deadline misses", std::to_string(res.deadline_misses)});
  std::printf("%s", table.render().c_str());

  if (!a.csv_path.empty()) {
    CsvWriter csv({"video", "algo", "scheme", "completed", "chunks",
                   "cell_mb", "wifi_mb", "avg_mbps", "steady_mbps", "stalls",
                   "switches", "energy_j", "misses"});
    csv.add_row({video.name(), a.algo, a.scheme,
                 res.completed ? "1" : "0", std::to_string(res.chunks),
                 TextTable::num(static_cast<double>(res.cell_bytes) / 1e6, 3),
                 TextTable::num(static_cast<double>(res.wifi_bytes) / 1e6, 3),
                 TextTable::num(res.avg_bitrate_mbps, 3),
                 TextTable::num(res.steady_avg_bitrate_mbps, 3),
                 std::to_string(res.stalls), std::to_string(res.switches),
                 TextTable::num(res.energy_j(), 1),
                 std::to_string(res.deadline_misses)});
    if (!csv.write_file(a.csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", a.csv_path.c_str());
      return 1;
    }
    std::printf("result written to %s\n", a.csv_path.c_str());
  }
  return res.completed ? 0 : 1;
}

int cmd_download(const Args& a) {
  Scenario scenario(build_network(a, seconds(600.0)));
  DownloadConfig cfg;
  cfg.size = static_cast<Bytes>(a.size_mb * 1e6);
  cfg.deadline = seconds(a.deadline_s);
  cfg.use_mpdash = a.use_mpdash;
  cfg.alpha = a.alpha;
  cfg.mptcp_scheduler = a.mptcp_scheduler;
  cfg.warmup = true;

  Telemetry telemetry;
  std::unique_ptr<JsonlSink> jsonl;
  if (!a.metrics_path.empty() || !a.trace_path.empty()) {
    cfg.telemetry = &telemetry;
    if (!a.trace_path.empty()) {
      jsonl = open_trace(a);
      if (!jsonl) return 1;
      telemetry.add_sink(jsonl.get());
    }
  }

  const DownloadResult res = run_download_session(scenario, cfg);

  if (!a.metrics_path.empty()) {
    // Downloads are short; export a single end-of-run snapshot, stamped
    // at the transfer finish (the loop itself drains to the trace horizon).
    MetricsTimeline timeline;
    timeline.record(telemetry.metrics().snapshot(res.finish_time));
    if (!write_file(a.metrics_path, timeline.to_csv())) {
      std::fprintf(stderr, "cannot write %s\n", a.metrics_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", a.metrics_path.c_str());
  }
  if (jsonl) {
    telemetry.remove_sink(jsonl.get());
    if (!close_trace(a, *jsonl)) return 1;
  }
  std::printf("%.1f MB with %.1f s deadline (%s):\n", a.size_mb,
              a.deadline_s, a.use_mpdash ? "MP-DASH" : "vanilla MPTCP");
  std::printf("  finish %.2f s (%s), LTE %.2f MB, WiFi %.2f MB, "
              "energy %.1f J\n",
              to_seconds(res.finish_time),
              res.deadline_missed ? "MISSED" : "met",
              static_cast<double>(res.cell_bytes) / 1e6,
              static_cast<double>(res.wifi_bytes) / 1e6, res.energy_j());
  return res.completed && !res.deadline_missed ? 0 : 1;
}

// Parallel field-study campaign: baseline vs the chosen MP-DASH scheme at
// every built-in location, sharded over --jobs workers. The table and the
// optional CSV are assembled in location order after the pool drains, so
// they are identical for any job count.
int cmd_sweep(const Args& a) {
  const Scheme scheme = parse_scheme(a.scheme);
  if (scheme == Scheme::kBaseline || scheme == Scheme::kWifiOnly) {
    usage("sweep needs an MP-DASH scheme (mpdash-rate or mpdash-duration)");
  }
  const Video video = pick_video(a);
  const Duration horizon = video.total_duration() + seconds(180.0);

  const auto& locations = field_study_locations();
  struct Pair {
    SessionResult base;
    SessionResult mpd;
  };
  Campaign<Pair> campaign("sweep/" + a.algo);
  for (const auto& loc : locations) {
    campaign.add(loc.name + "/" + a.algo + "/" + a.scheme,
                 [&loc, &video, &a, scheme, horizon](RunContext&) {
                   const ScenarioConfig net = location_scenario(loc, horizon);
                   SessionConfig cfg;
                   cfg.adaptation = a.algo;
                   cfg.alpha = a.alpha;
                   cfg.mptcp_scheduler = a.mptcp_scheduler;
                   Pair pair;
                   cfg.scheme = Scheme::kBaseline;
                   Scenario base_sc(net);
                   pair.base = run_streaming_session(base_sc, video, cfg);
                   cfg.scheme = scheme;
                   Scenario mpd_sc(net);
                   pair.mpd = run_streaming_session(mpd_sc, video, cfg);
                   return pair;
                 });
  }
  CampaignOptions opts;
  opts.jobs = a.jobs;
  const auto res = campaign.run(opts);
  if (!res.all_ok()) {
    for (const RunReport& r : res.reports) {
      if (!r.ok) {
        std::fprintf(stderr, "run '%s' failed: %s\n", r.key.c_str(),
                     r.error.c_str());
      }
    }
    return 1;
  }

  TextTable table({"location", "scenario", "cell saving", "bitrate delta",
                   "stalls"});
  CsvWriter csv({"location", "scenario", "algo", "scheme", "base_cell_mb",
                 "mpdash_cell_mb", "cell_saving", "bitrate_delta_mbps",
                 "stalls"});
  std::vector<double> savings;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const auto& loc = locations[i];
    const Pair& pair = res.results[i];
    const double saving =
        pair.base.cell_bytes > 0
            ? 1.0 - static_cast<double>(pair.mpd.cell_bytes) /
                        static_cast<double>(pair.base.cell_bytes)
            : 0.0;
    const double delta = pair.mpd.steady_avg_bitrate_mbps -
                         pair.base.steady_avg_bitrate_mbps;
    savings.push_back(saving);
    table.add_row({loc.name, std::to_string(static_cast<int>(loc.scenario)),
                   TextTable::pct(saving, 1), TextTable::num(delta, 2),
                   std::to_string(pair.mpd.stalls)});
    csv.add_row({loc.name, std::to_string(static_cast<int>(loc.scenario)),
                 a.algo, a.scheme,
                 TextTable::num(static_cast<double>(pair.base.cell_bytes) / 1e6, 3),
                 TextTable::num(static_cast<double>(pair.mpd.cell_bytes) / 1e6, 3),
                 TextTable::num(saving, 4), TextTable::num(delta, 3),
                 std::to_string(pair.mpd.stalls)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("cellular savings: p25 %.0f%%, median %.0f%%, p75 %.0f%%\n",
              percentile(savings, 25) * 100, percentile(savings, 50) * 100,
              percentile(savings, 75) * 100);
  std::printf("campaign: %d runs on %d workers, %.2fs wall (serial est "
              "%.2fs, speedup %.2fx)\n",
              res.stats.runs, res.stats.jobs, res.stats.wall_s,
              res.stats.run_wall_sum_s, res.stats.speedup());
  if (!a.csv_path.empty()) {
    if (!csv.write_file(a.csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", a.csv_path.c_str());
      return 1;
    }
    std::printf("results written to %s\n", a.csv_path.c_str());
  }
  return 0;
}

// Every hung reason and violation of a chaos or fleet campaign, per seed,
// on stderr.
template <typename Run>
void print_run_problems(const std::vector<Run>& runs) {
  for (const Run& r : runs) {
    const auto seed = static_cast<unsigned long long>(r.seed);
    if (!r.hung_reason.empty()) {
      std::fprintf(stderr, "seed %llu: %s\n", seed, r.hung_reason.c_str());
    }
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "seed %llu: %s\n", seed, v.c_str());
    }
  }
}

// Chaos campaign: N seeded random fault plans through the full stack with
// recovery on, invariants audited per run. Exit status is the gate CI
// uses: 0 only when every invariant held on every seed.
int cmd_chaos(const Args& a) {
  ChaosConfig cfg;
  cfg.seed_count = a.seed_count < 0 ? 50 : a.seed_count;
  cfg.base_seed = a.seed;
  cfg.jobs = a.jobs;
  cfg.session.scheme = parse_scheme(a.scheme);
  cfg.session.adaptation = a.algo;
  cfg.session.mptcp_scheduler = a.mptcp_scheduler;
  cfg.session.alpha = a.alpha;
  cfg.session.recovery = a.recovery;
  cfg.session.inflight = a.inflight;
  if (a.chunks > 0) cfg.chunk_count = a.chunks;
  cfg.trace_path = a.trace_path;
  cfg.trace_types = trace_type_mask(a);
  cfg.series_interval =
      a.series_path.empty() ? kDurationZero : seconds(a.series_interval_s);
  cfg.attribution = !a.attrib_path.empty();
  cfg.bundle_dir = a.bundle_dir;

  const ChaosCampaignResult res = run_chaos_campaign(cfg);

  TextTable table({"seed", "outcome", "done", "chunks", "abandoned",
                   "retries", "sf", "reinj", "timeouts", "violations"});
  for (const ChaosRunResult& r : res.runs) {
    table.add_row({std::to_string(r.seed), to_string(r.outcome),
                   r.completed ? "yes" : "NO",
                   std::to_string(r.chunks_delivered),
                   std::to_string(r.chunks_abandoned),
                   std::to_string(r.chunk_retries),
                   std::to_string(r.subflow_failures),
                   std::to_string(r.reinjected_packets),
                   std::to_string(r.http_timeouts),
                   std::to_string(r.violations.size())});
  }
  std::printf("%s", table.render().c_str());
  print_run_problems(res.runs);
  const int violations = res.violation_count();
  const OutcomeCounts oc = res.outcome_counts();
  std::printf("chaos: %d seeds on %d workers, %.2fs wall, recovery %s, "
              "%d invariant violation%s\n",
              res.stats.runs, res.stats.jobs, res.stats.wall_s,
              a.recovery ? "on" : "OFF", violations,
              violations == 1 ? "" : "s");
  std::printf("outcomes: %d ok, %d violation, %d hung, %d crashed\n", oc.ok,
              oc.violation, oc.hung, oc.crashed);
  if (!a.csv_path.empty()) {
    CsvWriter csv({"seed", "outcome", "completed", "chunks", "abandoned",
                   "retries", "stalls", "subflow_failures", "reinjected",
                   "timeouts", "violations"});
    for (const ChaosRunResult& r : res.runs) {
      csv.add_row({std::to_string(r.seed), to_string(r.outcome),
                   r.completed ? "1" : "0",
                   std::to_string(r.chunks_delivered),
                   std::to_string(r.chunks_abandoned),
                   std::to_string(r.chunk_retries), std::to_string(r.stalls),
                   std::to_string(r.subflow_failures),
                   std::to_string(r.reinjected_packets),
                   std::to_string(r.http_timeouts),
                   std::to_string(r.violations.size())});
    }
    if (!csv.write_file(a.csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", a.csv_path.c_str());
      return 1;
    }
    std::printf("results written to %s\n", a.csv_path.c_str());
  }
  if (!a.series_path.empty()) {
    // Runs land in seed order regardless of --jobs, so the aggregate is
    // bitwise stable for any worker count.
    std::string series(kChaosSeriesHeader);
    for (const ChaosRunResult& r : res.runs) series += r.series_csv;
    if (!write_file(a.series_path, series)) {
      std::fprintf(stderr, "cannot write %s\n", a.series_path.c_str());
      return 1;
    }
    std::printf("series written to %s\n", a.series_path.c_str());
  }
  if (!a.attrib_path.empty()) {
    // Rows sort by rollup_key_less — the order `mpdash_trace rollup`
    // gives the campaign's --trace files — so the CSV is bitwise
    // identical for any --jobs value AND to the offline tool's roll-up
    // (the in-process capture feeds the same span model).
    std::vector<RollupRow> rows;
    rows.reserve(res.runs.size());
    for (const ChaosRunResult& r : res.runs) {
      if (r.has_attribution) rows.push_back(r.attribution);
    }
    std::sort(rows.begin(), rows.end(),
              [](const RollupRow& x, const RollupRow& y) {
                return rollup_key_less(x.key, y.key);
              });
    if (!write_file(a.attrib_path, rollup_to_csv(rows))) {
      std::fprintf(stderr, "cannot write %s\n", a.attrib_path.c_str());
      return 1;
    }
    std::printf("attribution roll-up written to %s\n", a.attrib_path.c_str());
  }
  if (!a.trace_path.empty()) {
    std::printf("per-run traces written to %s%s\n", a.trace_path.c_str(),
                cfg.seed_count > 1 ? ".<seed>" : "");
  }
  if (!a.bundle_dir.empty() && oc.bad() > 0) {
    std::printf("repro bundles for %d non-ok run%s written to %s\n", oc.bad(),
                oc.bad() == 1 ? "" : "s", a.bundle_dir.c_str());
  }
  // The exit gate CI keys off: any violation, hang, or crash is a
  // failure; --keep-going demotes them to report-only.
  return a.keep_going ? 0 : (oc.bad() == 0 ? 0 : 1);
}

// Parses the --mix list: comma-separated scheme[:algo] entries, cycled
// over tenants by run_fleet.
std::vector<SessionSpec> parse_mix(const Args& a) {
  std::vector<SessionSpec> mix;
  SessionSpec base;
  base.scheme = parse_scheme(a.scheme);
  base.adaptation = a.algo;
  base.mptcp_scheduler = a.mptcp_scheduler;
  base.alpha = a.alpha;
  base.inflight = a.inflight;
  base.recovery = a.recovery;
  if (a.mix.empty()) {
    mix.push_back(base);
    return mix;
  }
  std::string rest = a.mix;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string entry = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    if (entry.empty()) continue;
    SessionSpec spec = base;
    const std::size_t colon = entry.find(':');
    spec.scheme = parse_scheme(entry.substr(0, colon));
    if (colon != std::string::npos) spec.adaptation = entry.substr(colon + 1);
    mix.push_back(std::move(spec));
  }
  if (mix.empty()) usage("empty --mix '" + a.mix + "'");
  return mix;
}

// Fleet workload: per seed, N tenants share one WiFi+LTE bottleneck pair
// on a single event loop; seeds fan out over the campaign runner. The
// per-session CSV lands in (seed, session) order for any --jobs count.
int cmd_fleet(const Args& a) {
  FleetCampaignConfig cfg;
  cfg.fleet.sessions = a.sessions;
  if (a.chunks > 0) cfg.fleet.chunk_count = a.chunks;
  cfg.fleet.mix = parse_mix(a);
  if (!enum_from_string<QueueDiscipline::kFairQueue>(a.discipline,
                                                     &cfg.fleet.discipline)) {
    usage("unknown discipline " + a.discipline + " (fifo|fq)");
  }
  if (a.wifi_mbps) cfg.fleet.wifi_mbps = *a.wifi_mbps;
  if (a.lte_mbps) cfg.fleet.lte_mbps = *a.lte_mbps;
  cfg.fleet.join_stagger = seconds(a.stagger_s);
  cfg.seed_count = a.seed_count < 0 ? 1 : a.seed_count;
  cfg.base_seed = a.seed;
  cfg.jobs = a.jobs;
  cfg.chaos = a.chaos;
  cfg.bundle_dir = a.bundle_dir;

  const FleetCampaignResult res = run_fleet_campaign(cfg);

  TextTable table({"seed", "outcome", "done", "qoe mean", "qoe p10",
                   "jain", "cell share", "violations"});
  for (const FleetResult& r : res.runs) {
    table.add_row({std::to_string(r.seed), to_string(r.outcome),
                   std::to_string(r.completed) + "/" +
                       std::to_string(cfg.fleet.sessions),
                   TextTable::num(r.qoe_mean, 3),
                   TextTable::num(r.qoe_p10, 3),
                   TextTable::num(r.jain_fairness, 4),
                   TextTable::pct(r.cell_fraction, 1),
                   std::to_string(r.violations.size())});
  }
  std::printf("%s", table.render().c_str());
  print_run_problems(res.runs);
  const OutcomeCounts oc = res.outcome_counts();
  std::printf("fleet: %d seeds x %d sessions (%s) on %d workers, %.2fs "
              "wall, chaos %s\n",
              res.stats.runs, cfg.fleet.sessions,
              to_string(cfg.fleet.discipline), res.stats.jobs,
              res.stats.wall_s, a.chaos ? "on" : "off");
  std::printf("outcomes: %d ok, %d violation, %d hung, %d crashed\n", oc.ok,
              oc.violation, oc.hung, oc.crashed);
  if (!a.csv_path.empty()) {
    if (!write_file(a.csv_path, res.sessions_csv())) {
      std::fprintf(stderr, "cannot write %s\n", a.csv_path.c_str());
      return 1;
    }
    std::printf("per-session results written to %s\n", a.csv_path.c_str());
  }
  if (!a.bundle_dir.empty() && oc.bad() > 0) {
    std::printf("fleet repro bundles for %d non-ok run%s written to %s\n",
                oc.bad(), oc.bad() == 1 ? "" : "s", a.bundle_dir.c_str());
  }
  return a.keep_going ? 0 : (oc.bad() == 0 ? 0 : 1);
}

// Loads the positional bundle (chaos or fleet); bad input exits 2.
ReproBundle load_bundle_arg(const Args& a) {
  if (a.input.empty()) usage(a.command + " needs a bundle path");
  ReproBundle bundle;
  std::string err;
  if (!load_repro_bundle(a.input, &bundle, &err)) {
    usage("cannot load bundle " + a.input + ": " + err);
  }
  return bundle;
}

// Replays a repro bundle through the identical campaign code path and
// verifies the stored failure reproduces bitwise (outcome + violation
// strings). Exit 0 only on an exact match.
int cmd_repro(const Args& a) {
  const ReproBundle bundle = load_bundle_arg(a);
  std::printf("repro: %s\n", a.input.c_str());
  if (bundle.fleet) {
    std::printf("  seed %llu, fleet of %d sessions, %d chunks, "
                "discipline %s\n",
                static_cast<unsigned long long>(bundle.seed),
                bundle.fleet->sessions, bundle.fleet->chunk_count,
                to_string(bundle.fleet->discipline));
  } else {
    std::printf("  seed %llu, scheme %s, %d chunks, recovery %s\n",
                static_cast<unsigned long long>(bundle.seed),
                to_string(bundle.spec.scheme), bundle.chunk_count,
                bundle.spec.recovery ? "on" : "off");
  }
  std::printf("  fault plan (%zu events):\n", bundle.plan.events.size());
  for (const FaultEvent& e : bundle.plan.events) {
    std::printf("    %s\n", describe(e).c_str());
  }
  std::printf("  expected outcome %s, %zu violation%s\n",
              to_string(bundle.outcome), bundle.expected_violations.size(),
              bundle.expected_violations.size() == 1 ? "" : "s");

  const ReplayResult replay = replay_repro_bundle(bundle);
  std::printf("  replayed outcome %s, %zu violation%s\n",
              to_string(replay.run.outcome), replay.run.violations.size(),
              replay.run.violations.size() == 1 ? "" : "s");
  if (replay.matches) {
    std::printf("repro: reproduced\n");
    return 0;
  }
  for (const std::string& m : replay.mismatches) {
    std::fprintf(stderr, "mismatch: %s\n", m.c_str());
  }
  std::fprintf(stderr, "repro: did NOT reproduce\n");
  return 1;
}

// Delta-debugging minimizer: ddmin over the bundle's fault events, then
// duration/magnitude/horizon ladders, writing the minimized bundle and a
// deterministic shrink log.
int cmd_shrink(const Args& a) {
  const ReproBundle bundle = load_bundle_arg(a);
  ShrinkConfig scfg;
  scfg.jobs = a.jobs;
  scfg.strict = a.strict;
  scfg.progress = stderr;
  const ShrinkResult res = shrink_repro_bundle(bundle, scfg);
  if (!res.reproduced) {
    std::fprintf(stderr,
                 "shrink: bundle does not reproduce a failure; nothing to "
                 "minimize\n");
    return 1;
  }
  const std::string out_path =
      a.out_path.empty() ? a.input + ".min.json" : a.out_path;
  std::string err;
  if (!write_repro_bundle(res.minimized, out_path, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (!write_file(out_path + ".log", res.log)) {
    std::fprintf(stderr, "cannot write %s.log\n", out_path.c_str());
    return 1;
  }
  std::printf("shrink: %d -> %d events in %d steps (%d sim runs)\n",
              res.initial_events, res.final_events, res.steps, res.sim_runs);
  std::printf("minimized bundle written to %s (log: %s.log)\n",
              out_path.c_str(), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // parse() already rejected unknown commands with exit 2.
  return find_command(args.command)->handler(args);
}
