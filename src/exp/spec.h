#pragma once
// SessionSpec: the one canonical, value-semantic description of a
// streaming session — scheme, adaptation, scenario reference, player /
// recovery / watchdog knobs. Everything that used to be re-encoded per
// consumer (ChaosConfig fields, repro-bundle JSON, ad-hoc CLI flags, the
// fleet mix) is expressed as a SessionSpec and *resolved* into the runtime
// views (`SessionConfig`, `ScenarioConfig`) with a per-run seed.
//
// JSON serialization is canonical (fixed field order, integer-ns times,
// shortest-round-trip doubles), so serialize → parse → re-serialize is
// bitwise stable — the repro-bundle format embeds specs verbatim and
// compares them as strings.

#include <cstdint>
#include <string>

#include "exp/scenario.h"
#include "exp/session.h"
#include "runner/watchdog.h"
#include "util/json.h"

namespace mpdash {

// Scenario reference: constant-rate WiFi + LTE bottlenecks (the chaos
// defaults). Per-run loss streams are derived from the run seed at
// resolution time, never stored.
struct ScenarioSpec {
  double wifi_mbps = 5.0;
  double lte_mbps = 4.0;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

struct SessionSpec {
  Scheme scheme = Scheme::kMpDashDuration;
  std::string adaptation = "festive";
  std::string mptcp_scheduler = "minrtt";
  double alpha = 1.0;
  int debounce_ticks = 2;
  ScenarioSpec scenario;
  // Player knobs (subset of PlayerConfig that experiments vary).
  int inflight = 1;  // prefetch window; 1 = sequential
  int max_chunk_attempts = 3;
  double buffer_capacity_s = 40.0;
  double startup_buffer_s = 8.0;
  // Recovery stack on/off; resolution expands this into the concrete
  // MptcpFailureConfig / HttpClientConfig knobs (with the seed-derived
  // jitter stream).
  bool recovery = true;
  Duration time_limit = seconds(600.0);
  WatchdogConfig watchdog;  // zeros = disabled

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

// Canonical single-line JSON object (see header comment).
std::string session_spec_to_json(const SessionSpec& spec);
bool session_spec_from_json_value(const JsonValue& v, SessionSpec* out,
                                  std::string* error);
bool session_spec_from_json(const std::string& text, SessionSpec* out,
                            std::string* error);

// Fails through `f`, naming the field, on an adaptation or MPTCP
// scheduler name the session factories do not build.
bool session_names_known(const SessionSpec& spec, const JsonFields& f);

// The "watchdog" object of session specs and fleet configs. The reader
// takes `parent`'s through `f`; with `optional` (schema-1 bundles) an
// absent object or field keeps its value in *out.
std::string watchdog_to_json(const WatchdogConfig& watchdog);
bool watchdog_from_json(const JsonValue& parent, const JsonFields& f,
                        WatchdogConfig* out, bool optional = false);

// Resolution: spec + per-run seed → the runtime views. All derived seeds
// (link loss streams, HTTP retry jitter) come from `run_seed` via named
// streams, so one (spec, seed) pair maps to exactly one simulation.
SessionConfig resolve_session_config(const SessionSpec& spec,
                                     std::uint64_t run_seed);
ScenarioConfig resolve_scenario_config(const SessionSpec& spec,
                                       std::uint64_t run_seed);

}  // namespace mpdash
