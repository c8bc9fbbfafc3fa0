#include "exp/spec.h"

#include <algorithm>
#include <utility>

namespace mpdash {

bool scheme_from_string(std::string_view name, Scheme* out) {
  for (int i = 0; i <= static_cast<int>(Scheme::kMpDashRate); ++i) {
    const Scheme s = static_cast<Scheme>(i);
    if (name == to_string(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

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
  auto bad = [error](const char* what) {
    if (error) *error = std::string("spec: missing or bad \"") + what + "\"";
    return false;
  };
  const JsonValue* v = root.find("scheme");
  if (v == nullptr || !v->is_string() || !scheme_from_string(v->str, &s.scheme)) {
    return bad("scheme");
  }
  v = root.find("adaptation");
  if (v == nullptr || !v->is_string()) return bad("adaptation");
  s.adaptation = v->str;
  v = root.find("mptcp_scheduler");
  if (v == nullptr || !v->is_string()) return bad("mptcp_scheduler");
  s.mptcp_scheduler = v->str;
  v = root.find("alpha");
  if (v == nullptr || !v->is_number()) return bad("alpha");
  s.alpha = v->as_double(1.0);
  v = root.find("debounce_ticks");
  if (v == nullptr || !v->is_number()) return bad("debounce_ticks");
  s.debounce_ticks = static_cast<int>(v->as_int64(2));
  v = root.find("scenario");
  if (v == nullptr || !v->is_object()) return bad("scenario");
  {
    const JsonValue* w = v->find("wifi_mbps");
    if (w == nullptr || !w->is_number()) return bad("scenario.wifi_mbps");
    s.scenario.wifi_mbps = w->as_double(5.0);
    w = v->find("lte_mbps");
    if (w == nullptr || !w->is_number()) return bad("scenario.lte_mbps");
    s.scenario.lte_mbps = w->as_double(4.0);
  }
  v = root.find("inflight");
  if (v == nullptr || !v->is_number()) return bad("inflight");
  s.inflight = static_cast<int>(v->as_int64(1));
  v = root.find("max_chunk_attempts");
  if (v == nullptr || !v->is_number()) return bad("max_chunk_attempts");
  s.max_chunk_attempts = static_cast<int>(v->as_int64(3));
  v = root.find("buffer_capacity_s");
  if (v == nullptr || !v->is_number()) return bad("buffer_capacity_s");
  s.buffer_capacity_s = v->as_double(40.0);
  v = root.find("startup_buffer_s");
  if (v == nullptr || !v->is_number()) return bad("startup_buffer_s");
  s.startup_buffer_s = v->as_double(8.0);
  v = root.find("recovery");
  if (v == nullptr || !v->is_bool()) return bad("recovery");
  s.recovery = v->boolean;
  v = root.find("time_limit_ns");
  if (v == nullptr || !v->is_number()) return bad("time_limit_ns");
  s.time_limit = Duration(v->as_int64(0));
  v = root.find("watchdog");
  if (v == nullptr || !v->is_object()) return bad("watchdog");
  {
    const JsonValue* w = v->find("max_sim_events");
    if (w == nullptr || !w->is_number()) return bad("watchdog.max_sim_events");
    s.watchdog.max_sim_events = w->as_uint64(0);
    w = v->find("max_wall_s");
    if (w == nullptr || !w->is_number()) return bad("watchdog.max_wall_s");
    s.watchdog.max_wall_s = w->as_double(0.0);
    w = v->find("poll_interval");
    if (w == nullptr || !w->is_number()) return bad("watchdog.poll_interval");
    s.watchdog.poll_interval = w->as_uint64(4096);
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
