#include "exp/spec.h"

#include <algorithm>
#include <utility>

#include "util/enum_string.h"

namespace mpdash {

std::string session_spec_to_json(const SessionSpec& s) {
  // Canonical: fixed field order, every field always emitted, one line —
  // the bundle format embeds this object verbatim inside a larger layout.
  std::string out = "{";
  out += "\"scheme\": " + json_quote(to_string(s.scheme));
  out += ", \"adaptation\": " + json_quote(s.adaptation);
  out += ", \"mptcp_scheduler\": " + json_quote(s.mptcp_scheduler);
  out += ", \"alpha\": " + json_double(s.alpha);
  out += ", \"debounce_ticks\": " + std::to_string(s.debounce_ticks);
  out += ", \"scenario\": {\"wifi_mbps\": " + json_double(s.scenario.wifi_mbps) +
         ", \"lte_mbps\": " + json_double(s.scenario.lte_mbps) + "}";
  out += ", \"inflight\": " + std::to_string(s.inflight);
  out += ", \"max_chunk_attempts\": " + std::to_string(s.max_chunk_attempts);
  out += ", \"buffer_capacity_s\": " + json_double(s.buffer_capacity_s);
  out += ", \"startup_buffer_s\": " + json_double(s.startup_buffer_s);
  out += std::string(", \"recovery\": ") + (s.recovery ? "true" : "false");
  out += ", \"time_limit_ns\": " + std::to_string(s.time_limit.count());
  out += ", \"watchdog\": {\"max_sim_events\": " +
         json_u64(s.watchdog.max_sim_events) +
         ", \"max_wall_s\": " + json_double(s.watchdog.max_wall_s) +
         ", \"poll_interval\": " + json_u64(s.watchdog.poll_interval) + "}";
  out += "}";
  return out;
}

bool session_spec_from_json_value(const JsonValue& root, SessionSpec* out,
                                  std::string* error) {
  if (!root.is_object()) {
    if (error) *error = "spec: not an object";
    return false;
  }
  SessionSpec s;
  const JsonFields f("spec", error);
  const JsonValue* v = root.find("scheme");
  if (v == nullptr || !v->is_string() ||
      !enum_from_string<Scheme::kMpDashRate>(v->str, &s.scheme)) {
    return f.bad("scheme");
  }
  if (!f.get(root, "adaptation", &s.adaptation) ||
      !f.get(root, "mptcp_scheduler", &s.mptcp_scheduler) ||
      !f.get(root, "alpha", &s.alpha) ||
      !f.get(root, "debounce_ticks", &s.debounce_ticks)) {
    return false;
  }
  v = root.find("scenario");
  if (v == nullptr || !v->is_object()) return f.bad("scenario");
  if (!f.get(*v, "scenario.wifi_mbps", &s.scenario.wifi_mbps) ||
      !f.get(*v, "scenario.lte_mbps", &s.scenario.lte_mbps) ||
      !f.get(root, "inflight", &s.inflight) ||
      !f.get(root, "max_chunk_attempts", &s.max_chunk_attempts) ||
      !f.get(root, "buffer_capacity_s", &s.buffer_capacity_s) ||
      !f.get(root, "startup_buffer_s", &s.startup_buffer_s) ||
      !f.get(root, "recovery", &s.recovery) ||
      !f.get(root, "time_limit_ns", &s.time_limit)) {
    return false;
  }
  v = root.find("watchdog");
  if (v == nullptr || !v->is_object()) return f.bad("watchdog");
  if (!f.get(*v, "watchdog.max_sim_events", &s.watchdog.max_sim_events) ||
      !f.get(*v, "watchdog.max_wall_s", &s.watchdog.max_wall_s) ||
      !f.get(*v, "watchdog.poll_interval", &s.watchdog.poll_interval)) {
    return false;
  }
  *out = std::move(s);
  return true;
}

bool session_spec_from_json(const std::string& text, SessionSpec* out,
                            std::string* error) {
  JsonValue root;
  if (!json_parse(text, &root, error)) return false;
  return session_spec_from_json_value(root, out, error);
}

SessionConfig resolve_session_config(const SessionSpec& spec,
                                     std::uint64_t run_seed) {
  SessionConfig s;
  s.scheme = spec.scheme;
  s.adaptation = spec.adaptation;
  s.mptcp_scheduler = spec.mptcp_scheduler;
  s.alpha = spec.alpha;
  s.debounce_ticks = spec.debounce_ticks;
  s.time_limit = spec.time_limit;
  s.player.max_chunk_attempts = spec.max_chunk_attempts;
  s.player.max_inflight_chunks = std::max(1, spec.inflight);
  s.player.buffer_capacity = seconds(spec.buffer_capacity_s);
  s.player.startup_buffer = seconds(spec.startup_buffer_s);
  s.watchdog = spec.watchdog;
  if (spec.recovery) {
    s.mptcp_recovery.max_consecutive_rtos = 4;
    s.mptcp_recovery.reprobe_interval = seconds(2.0);
    s.http_recovery.request_timeout = seconds(4.0);
    s.http_recovery.max_retries = 4;
    s.http_recovery.jitter_seed = derive_stream_seed(run_seed, "http-jitter");
  }
  return s;
}

ScenarioConfig resolve_scenario_config(const SessionSpec& spec,
                                       std::uint64_t run_seed) {
  ScenarioConfig net =
      constant_scenario(DataRate::mbps(spec.scenario.wifi_mbps),
                        DataRate::mbps(spec.scenario.lte_mbps));
  net.seed = derive_stream_seed(run_seed, "links");
  return net;
}

}  // namespace mpdash
