#include "exp/repro.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>

#include "fault/fault_json.h"
#include "util/csv.h"
#include "util/enum_string.h"
#include "util/json.h"

namespace mpdash {

namespace {

// Each kind's marker and current layout version; every version from 1 up
// to the current one loads.
struct Layout {
  const char* kind;
  int schema;
};
constexpr Layout kSessionLayout{"mpdash-repro", 2};
constexpr Layout kFleetLayout{"mpdash-fleet-repro", 1};

std::string fleet_config_to_json(const FleetConfig& c) {
  // Canonical one-line object, same conventions as session_spec_to_json.
  std::string out = "{";
  out += "\"sessions\": " + std::to_string(c.sessions);
  out += ", \"chunk_count\": " + std::to_string(c.chunk_count);
  out += ", \"mix\": [";
  for (std::size_t i = 0; i < c.mix.size(); ++i) {
    if (i > 0) out += ", ";
    out += session_spec_to_json(c.mix[i]);
  }
  out += "]";
  out += ", \"discipline\": " + json_quote(to_string(c.discipline));
  out += ", \"fq_quantum\": " + std::to_string(c.fq_quantum);
  out += ", \"wifi_mbps\": " + json_double(c.wifi_mbps);
  out += ", \"lte_mbps\": " + json_double(c.lte_mbps);
  out += ", \"wifi_up_mbps\": " + json_double(c.wifi_up_mbps);
  out += ", \"lte_up_mbps\": " + json_double(c.lte_up_mbps);
  out += ", \"wifi_rtt_ns\": " + std::to_string(c.wifi_rtt.count());
  out += ", \"lte_rtt_ns\": " + std::to_string(c.lte_rtt.count());
  out += ", \"queue_capacity\": " + std::to_string(c.queue_capacity);
  out += ", \"join_stagger_ns\": " + std::to_string(c.join_stagger.count());
  out += ", \"time_limit_ns\": " + std::to_string(c.time_limit.count());
  out += ", \"watchdog\": " + watchdog_to_json(c.watchdog);
  out += "}";
  return out;
}

bool fleet_config_from_json_value(const JsonValue& root, FleetConfig* out,
                                  std::string* error) {
  if (!root.is_object()) {
    if (error) *error = "fleet config: not an object";
    return false;
  }
  FleetConfig c;
  const JsonFields f("fleet config", error);
  if (!f.get(root, "sessions", &c.sessions) ||
      !f.get(root, "chunk_count", &c.chunk_count)) {
    return false;
  }
  const JsonValue* v = root.find("mix");
  if (v == nullptr || !v->is_array()) return f.bad("mix");
  c.mix.clear();
  for (const JsonValue& item : v->items) {
    SessionSpec spec;
    std::string spec_error;
    if (!session_spec_from_json_value(item, &spec, &spec_error)) {
      if (error) *error = "fleet config: mix entry: " + spec_error;
      return false;
    }
    c.mix.push_back(std::move(spec));
  }
  v = root.find("discipline");
  if (v == nullptr || !v->is_string() ||
      !enum_from_string<QueueDiscipline::kFairQueue>(v->str, &c.discipline)) {
    return f.bad("discipline");
  }
  if (!f.get(root, "fq_quantum", &c.fq_quantum) ||
      !f.get(root, "wifi_mbps", &c.wifi_mbps) ||
      !f.get(root, "lte_mbps", &c.lte_mbps) ||
      !f.get(root, "wifi_up_mbps", &c.wifi_up_mbps) ||
      !f.get(root, "lte_up_mbps", &c.lte_up_mbps) ||
      !f.get(root, "wifi_rtt_ns", &c.wifi_rtt) ||
      !f.get(root, "lte_rtt_ns", &c.lte_rtt) ||
      !f.get(root, "queue_capacity", &c.queue_capacity) ||
      !f.get(root, "join_stagger_ns", &c.join_stagger) ||
      !f.get(root, "time_limit_ns", &c.time_limit) ||
      !watchdog_from_json(root, f, &c.watchdog)) {
    return false;
  }
  *out = std::move(c);
  return true;
}

// Bundles come from outside the program, and a network field out of range
// does not fail loudly: the run simulates some other network. Each check
// names its field the way the bundle spells it.
bool in_range(bool ok, const char* field, const char* want,
              std::string* error) {
  if (!ok && error) {
    *error = std::string("bundle: \"") + field + "\" must be " + want;
  }
  return ok;
}

bool valid_network(const FleetConfig& c, std::string* error) {
  return in_range(c.wifi_mbps > 0.0, "wifi_mbps", "> 0", error) &&
         in_range(c.lte_mbps > 0.0, "lte_mbps", "> 0", error) &&
         in_range(c.wifi_up_mbps > 0.0, "wifi_up_mbps", "> 0", error) &&
         in_range(c.lte_up_mbps > 0.0, "lte_up_mbps", "> 0", error) &&
         in_range(c.wifi_rtt >= kDurationZero, "wifi_rtt_ns", ">= 0", error) &&
         in_range(c.lte_rtt >= kDurationZero, "lte_rtt_ns", ">= 0", error) &&
         in_range(c.queue_capacity >= 1, "queue_capacity", ">= 1", error) &&
         in_range(c.fq_quantum >= 1, "fq_quantum", ">= 1", error) &&
         in_range(c.join_stagger >= kDurationZero, "join_stagger_ns", ">= 0",
                  error) &&
         in_range(c.time_limit > kDurationZero, "time_limit_ns", "> 0", error);
}

bool valid_network(const SessionSpec& s, std::string* error) {
  return in_range(s.scenario.wifi_mbps > 0.0, "scenario.wifi_mbps", "> 0",
                  error) &&
         in_range(s.scenario.lte_mbps > 0.0, "scenario.lte_mbps", "> 0",
                  error) &&
         in_range(s.time_limit > kDurationZero, "time_limit_ns", "> 0", error);
}

// The fields every campaign snapshot shares, whatever the run kind.
template <typename Run>
ReproBundle snapshot(const Run& run, const FaultPlan& plan) {
  ReproBundle b;
  b.seed = run.seed;
  b.plan = plan;
  b.outcome = run.outcome;
  b.hung_reason = run.hung_reason;
  b.expected_violations = run.violations;
  return b;
}

template <typename Run>
BundleRun bundle_run(const Run& r) {
  return BundleRun{r.outcome, r.hung_reason, r.violations, r.fingerprint()};
}

}  // namespace

std::string repro_bundle_to_json(const ReproBundle& b) {
  // Canonical: fixed field order, every field always emitted, one
  // top-level field per line (the embedded spec/config and plan keep their
  // own layouts). Always writes the current schema of the bundle's kind.
  const Layout& layout = b.fleet ? kFleetLayout : kSessionLayout;
  std::string out = "{\n";
  out += "\"schema\": " + std::to_string(layout.schema) + ",\n";
  out += "\"kind\": " + json_quote(layout.kind) + ",\n";
  out += "\"seed\": " + json_u64(b.seed) + ",\n";
  if (b.fleet) {
    out += "\"config\": " + fleet_config_to_json(*b.fleet) + ",\n";
  } else {
    out += "\"spec\": " + session_spec_to_json(b.spec) + ",\n";
    out += "\"chunk_count\": " + std::to_string(b.chunk_count) + ",\n";
  }
  out += "\"plan\": " + fault_plan_to_json(b.plan) + ",\n";
  out += "\"outcome\": " + json_quote(to_string(b.outcome)) + ",\n";
  out += "\"hung_reason\": " + json_quote(b.hung_reason) + ",\n";
  out += "\"expected_violations\": [";
  for (std::size_t i = 0; i < b.expected_violations.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += json_quote(b.expected_violations[i]);
  }
  if (!b.expected_violations.empty()) out += "\n";
  out += "]\n}\n";
  return out;
}

bool repro_bundle_from_json(const std::string& text, ReproBundle* out,
                            std::string* error) {
  JsonValue root;
  if (!json_parse(text, &root, error)) return false;
  if (!root.is_object()) {
    if (error) *error = "bundle: top level is not an object";
    return false;
  }
  const JsonValue* kind = root.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      (kind->str != kSessionLayout.kind && kind->str != kFleetLayout.kind)) {
    if (error) *error = "bundle: missing or wrong \"kind\" marker";
    return false;
  }
  const bool fleet = kind->str == kFleetLayout.kind;
  const Layout& layout = fleet ? kFleetLayout : kSessionLayout;

  ReproBundle b;
  const JsonFields f("bundle", error);
  // Bundles come from outside the program: a run needs at least one
  // tenant and one chunk (the read already refused a count no int holds).
  auto valid_count = [error](int n, const char* field) {
    if (n >= 1) return true;
    if (error) {
      *error = std::string("bundle: \"") + field + "\" must be from 1 to " +
               std::to_string(std::numeric_limits<int>::max());
    }
    return false;
  };
  if (!f.get(root, "schema", &b.schema)) return false;
  if (b.schema < 1 || b.schema > layout.schema) {
    if (error) {
      *error = "bundle: unsupported schema " + std::to_string(b.schema);
    }
    return false;
  }
  if (!f.get(root, "seed", &b.seed)) return false;
  const JsonValue* v = nullptr;
  if (fleet) {
    v = root.find("config");
    if (v == nullptr) return f.bad("config");
    FleetConfig config;
    if (!fleet_config_from_json_value(*v, &config, error) ||
        !valid_count(config.sessions, "sessions") ||
        !valid_count(config.chunk_count, "chunk_count") ||
        !valid_network(config, error)) {
      return false;
    }
    b.fleet = std::move(config);
  } else if (b.schema >= 2) {
    v = root.find("spec");
    if (v == nullptr) return f.bad("spec");
    std::string spec_error;
    if (!session_spec_from_json_value(*v, &b.spec, &spec_error)) {
      if (error) *error = "bundle: " + spec_error;
      return false;
    }
  } else {
    // Schema-1 session bundle: the knobs were flat top-level fields; map
    // them into the spec (unlisted spec fields keep the chaos-era defaults
    // those bundles implied).
    v = root.find("scheme");
    if (v == nullptr || !v->is_string() ||
        !enum_from_string<Scheme::kMpDashRate>(v->str, &b.spec.scheme)) {
      if (error) *error = "bundle: bad \"scheme\"";
      return false;
    }
    if (!f.get(root, "adaptation", &b.spec.adaptation, true) ||
        !f.get(root, "mptcp_scheduler", &b.spec.mptcp_scheduler, true) ||
        !session_names_known(b.spec, f) ||
        !f.get(root, "inflight", &b.spec.inflight, true) ||
        !f.get(root, "recovery", &b.spec.recovery, true) ||
        !f.get(root, "time_limit_ns", &b.spec.time_limit) ||
        !watchdog_from_json(root, f, &b.spec.watchdog, true)) {
      return false;
    }
  }
  if (!fleet) {
    if (!f.get(root, "chunk_count", &b.chunk_count) ||
        !valid_count(b.chunk_count, "chunk_count") ||
        !valid_network(b.spec, error)) {
      return false;
    }
  }
  v = root.find("plan");
  if (v == nullptr) return f.bad("plan");
  if (!fault_plan_from_json_value(*v, &b.plan, error)) return false;
  v = root.find("outcome");
  if (v == nullptr || !v->is_string() ||
      !enum_from_string<RunOutcome::kCrashed>(v->str, &b.outcome)) {
    if (error) *error = "bundle: bad \"outcome\"";
    return false;
  }
  if (!f.get(root, "hung_reason", &b.hung_reason, true)) return false;
  v = root.find("expected_violations");
  if (v != nullptr) {
    if (!v->is_array()) return f.bad("expected_violations");
    for (const JsonValue& item : v->items) {
      std::string violation;
      if (!json_get(item, &violation)) return f.bad("expected_violations");
      b.expected_violations.push_back(std::move(violation));
    }
  }
  *out = std::move(b);
  return true;
}

bool write_repro_bundle(const ReproBundle& b, const std::string& path,
                        std::string* error) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    // A pre-existing directory is fine; a real failure surfaces at open.
  }
  if (write_file(path, repro_bundle_to_json(b))) return true;
  if (error) *error = "cannot write " + path;
  return false;
}

bool load_repro_bundle(const std::string& path, ReproBundle* out,
                       std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  return repro_bundle_from_json(text, out, error);
}

std::string repro_bundle_path(const std::string& dir, std::uint64_t seed,
                              bool fleet) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + (fleet ? "fleet_repro_" : "repro_") + json_u64(seed) +
         ".json";
}

ReproBundle make_repro_bundle(const ChaosConfig& cfg,
                              const ChaosRunResult& run,
                              const FaultPlan& plan) {
  ReproBundle b = snapshot(run, plan);
  b.spec = cfg.session;
  b.chunk_count = cfg.chunk_count;
  return b;
}

ReproBundle make_repro_bundle(const FleetConfig& cfg, const FleetResult& run,
                              const FaultPlan& plan) {
  ReproBundle b = snapshot(run, plan);
  b.fleet = cfg;
  b.fleet->faults = nullptr;
  return b;
}

void emit_repro_bundle(const std::string& dir, const ReproBundle& b) {
  std::string err;
  const bool fleet = b.fleet.has_value();
  if (!write_repro_bundle(b, repro_bundle_path(dir, b.seed, fleet), &err)) {
    std::fprintf(stderr, "%s: bundle for seed %llu not written: %s\n",
                 fleet ? "fleet" : "chaos",
                 static_cast<unsigned long long>(b.seed), err.c_str());
  }
}

BundleRun run_repro_bundle(const ReproBundle& b, Telemetry& telemetry) {
  try {
    if (b.fleet) {
      FleetConfig cfg = *b.fleet;
      cfg.seed = b.seed;
      cfg.faults = &b.plan;
      return bundle_run(run_fleet(cfg, &telemetry));
    }
    ChaosConfig cfg;
    cfg.session = b.spec;
    cfg.chunk_count = b.chunk_count;
    return bundle_run(
        run_chaos_single(cfg, chaos_video(cfg), b.seed, b.plan, telemetry));
  } catch (const std::exception& e) {
    BundleRun crashed;
    mark_crashed(&crashed, e.what());
    return crashed;
  }
}

ReplayResult replay_repro_bundle(const ReproBundle& b) {
  Telemetry telemetry;
  ReplayResult out;
  out.run = run_repro_bundle(b, telemetry);

  if (out.run.outcome != b.outcome) {
    out.mismatches.push_back(std::string("outcome: expected ") +
                             to_string(b.outcome) + ", got " +
                             to_string(out.run.outcome));
  }
  if (out.run.hung_reason != b.hung_reason) {
    out.mismatches.push_back("hung reason: expected \"" + b.hung_reason +
                             "\", got \"" + out.run.hung_reason + "\"");
  }
  const std::size_t n =
      std::max(b.expected_violations.size(), out.run.violations.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* want =
        i < b.expected_violations.size() ? &b.expected_violations[i] : nullptr;
    const std::string* got =
        i < out.run.violations.size() ? &out.run.violations[i] : nullptr;
    if (want != nullptr && got != nullptr && *want == *got) continue;
    std::string line = "violation " + std::to_string(i) + ": expected ";
    line += want != nullptr ? "\"" + *want + "\"" : "<none>";
    line += ", got ";
    line += got != nullptr ? "\"" + *got + "\"" : "<none>";
    out.mismatches.push_back(std::move(line));
  }
  out.matches = out.mismatches.empty();
  return out;
}

}  // namespace mpdash
