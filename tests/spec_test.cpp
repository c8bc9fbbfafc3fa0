// SessionSpec: the canonical session description and its resolution into
// the runtime views. Covers the canonical-JSON contract (serialize →
// parse → re-serialize is bitwise stable), malformed-input rejection with
// field-precise errors, resolve_session_config/resolve_scenario_config
// correctness, and the schema-1 repro-bundle compatibility path (old flat
// bundles still load, map into a spec, and replay identically).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "exp/repro.h"
#include "exp/spec.h"
#include "fault/fault.h"
#include "fault/fault_json.h"
#include "telemetry/telemetry.h"
#include "util/enum_string.h"

namespace mpdash {
namespace {

SessionSpec sample_spec() {
  SessionSpec s;
  s.scheme = Scheme::kMpDashRate;
  s.adaptation = "bba";
  s.mptcp_scheduler = "roundrobin";
  s.alpha = 0.1 + 0.2;  // awkward double, must round-trip bitwise
  s.debounce_ticks = 3;
  s.scenario.wifi_mbps = 3.8;
  s.scenario.lte_mbps = 2.5;
  s.inflight = 3;
  s.max_chunk_attempts = 5;
  s.buffer_capacity_s = 30.0;
  s.startup_buffer_s = 4.0;
  s.recovery = false;
  s.time_limit = seconds(123.5);
  s.watchdog = {1000, 2.5};
  return s;
}

// --- canonical JSON ------------------------------------------------------

TEST(SessionSpecJson, DefaultAndSampleSpecsRoundTripBitwise) {
  for (const SessionSpec& spec : {SessionSpec{}, sample_spec()}) {
    const std::string text = session_spec_to_json(spec);
    SessionSpec parsed;
    std::string err;
    ASSERT_TRUE(session_spec_from_json(text, &parsed, &err)) << err;
    EXPECT_EQ(parsed, spec);
    // serialize -> parse -> re-serialize is byte-identical.
    EXPECT_EQ(session_spec_to_json(parsed), text);
  }
}

TEST(SessionSpecJson, IsOneCanonicalLine) {
  const std::string text = session_spec_to_json(SessionSpec{});
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  // Spot-check the fixed field order the bundle format depends on.
  EXPECT_LT(text.find("\"scheme\""), text.find("\"adaptation\""));
  EXPECT_LT(text.find("\"adaptation\""), text.find("\"scenario\""));
  EXPECT_LT(text.find("\"recovery\""), text.find("\"watchdog\""));
}

TEST(SessionSpecJson, RejectsMalformedInputWithFieldErrors) {
  SessionSpec spec;
  std::string err;
  EXPECT_FALSE(session_spec_from_json("", &spec, &err));
  EXPECT_FALSE(session_spec_from_json("[]", &spec, &err));
  EXPECT_EQ(err, "spec: not an object");

  // Dropping or mistyping any single field names that field in the error.
  const struct {
    const char* needle;       // substring to corrupt out of the document
    const char* replacement;  // what to splice in
    const char* want;         // expected error suffix
  } cases[] = {
      {"\"scheme\": \"mpdash-rate\"", "\"scheme\": \"nope\"", "scheme"},
      {"\"adaptation\": \"bba\"", "\"adaptation\": 7", "adaptation"},
      {"\"alpha\": ", "\"alpha_gone\": ", "alpha"},
      {"\"recovery\": false", "\"recovery\": \"no\"", "recovery"},
      {"\"wifi_mbps\": ", "\"wifi\": ", "scenario.wifi_mbps"},
      {"\"max_wall_s\": ", "\"wall\": ", "watchdog.max_wall_s"},
      // An integer field takes only a whole literal its type holds: a
      // fraction, a wrap-around or a sign would load some other run.
      {"\"inflight\": 3", "\"inflight\": 2.5", "inflight"},
      {"\"debounce_ticks\": 3", "\"debounce_ticks\": 4294967298",
       "debounce_ticks"},
      {"\"max_sim_events\": 1000", "\"max_sim_events\": -1",
       "watchdog.max_sim_events"},
  };
  const std::string good = session_spec_to_json(sample_spec());
  for (const auto& c : cases) {
    std::string bad = good;
    const std::size_t pos = bad.find(c.needle);
    ASSERT_NE(pos, std::string::npos) << c.needle;
    bad.replace(pos, std::string(c.needle).size(), c.replacement);
    err.clear();
    EXPECT_FALSE(session_spec_from_json(bad, &spec, &err)) << c.want;
    EXPECT_EQ(err, std::string("spec: missing or bad \"") + c.want + "\"");
  }
}

TEST(SessionSpecJson, SchemeNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Scheme::kMpDashRate); ++i) {
    const Scheme s = static_cast<Scheme>(i);
    Scheme parsed;
    ASSERT_TRUE(enum_from_string<Scheme::kMpDashRate>(to_string(s), &parsed))
        << to_string(s);
    EXPECT_EQ(parsed, s);
  }
  Scheme out;
  EXPECT_FALSE(enum_from_string<Scheme::kMpDashRate>("", &out));
  EXPECT_FALSE(enum_from_string<Scheme::kMpDashRate>("mpdash", &out));
}

// --- resolution ----------------------------------------------------------

TEST(SessionSpecResolve, MapsEveryKnobIntoTheRuntimeViews) {
  const SessionSpec spec = sample_spec();
  const SessionConfig cfg = resolve_session_config(spec, 42);
  EXPECT_EQ(cfg.scheme, spec.scheme);
  EXPECT_EQ(cfg.adaptation, spec.adaptation);
  EXPECT_EQ(cfg.mptcp_scheduler, spec.mptcp_scheduler);
  EXPECT_EQ(cfg.alpha, spec.alpha);
  EXPECT_EQ(cfg.debounce_ticks, spec.debounce_ticks);
  EXPECT_EQ(cfg.time_limit, spec.time_limit);
  EXPECT_EQ(cfg.player.max_inflight_chunks, spec.inflight);
  EXPECT_EQ(cfg.player.max_chunk_attempts, spec.max_chunk_attempts);
  EXPECT_EQ(cfg.player.buffer_capacity, seconds(spec.buffer_capacity_s));
  EXPECT_EQ(cfg.player.startup_buffer, seconds(spec.startup_buffer_s));
  EXPECT_EQ(cfg.watchdog.max_sim_events, spec.watchdog.max_sim_events);
  EXPECT_EQ(cfg.watchdog.max_wall_s, spec.watchdog.max_wall_s);

  // recovery=false leaves the recovery stack at inert defaults.
  EXPECT_EQ(cfg.http_recovery.max_retries, HttpClientConfig{}.max_retries);

  const ScenarioConfig net = resolve_scenario_config(spec, 42);
  EXPECT_EQ(net.wifi_down.rate_at(kTimeZero), DataRate::mbps(3.8));
  EXPECT_EQ(net.lte_down.rate_at(kTimeZero), DataRate::mbps(2.5));
  EXPECT_EQ(net.seed, derive_stream_seed(42, "links"));
}

TEST(SessionSpecResolve, RecoveryExpandsWithSeedDerivedJitter) {
  SessionSpec spec;  // recovery = true by default
  const SessionConfig a = resolve_session_config(spec, 7);
  EXPECT_EQ(a.mptcp_recovery.max_consecutive_rtos, 4);
  EXPECT_EQ(a.mptcp_recovery.reprobe_interval, seconds(2.0));
  EXPECT_EQ(a.http_recovery.request_timeout, seconds(4.0));
  EXPECT_EQ(a.http_recovery.max_retries, 4);
  EXPECT_EQ(a.http_recovery.jitter_seed, derive_stream_seed(7, "http-jitter"));
  // Different run seed, different jitter stream — resolution is seeded.
  const SessionConfig b = resolve_session_config(spec, 8);
  EXPECT_NE(a.http_recovery.jitter_seed, b.http_recovery.jitter_seed);
}

TEST(SessionSpecResolve, InflightIsClampedToSequentialMinimum) {
  SessionSpec spec;
  spec.inflight = 0;
  EXPECT_EQ(resolve_session_config(spec, 1).player.max_inflight_chunks, 1);
}

// --- schema-1 repro-bundle compatibility ---------------------------------

FaultPlan blackout_plan() {
  FaultEvent e;
  e.kind = FaultKind::kBlackout;
  e.at = kTimeZero + seconds(4.0);
  e.duration = seconds(3.0);
  e.path_id = 0;  // WiFi
  FaultPlan plan;
  plan.events.push_back(e);
  return plan;
}

// A schema-1 bundle as the campaign used to write it: session knobs as
// flat top-level fields, no embedded spec object.
std::string schema1_bundle_text(const ChaosRunResult& run,
                                const FaultPlan& plan) {
  std::string out = "{\n";
  out += "\"schema\": 1,\n";
  out += "\"kind\": \"mpdash-repro\",\n";
  out += "\"seed\": " + std::to_string(run.seed) + ",\n";
  out += "\"scheme\": \"mpdash-duration\",\n";
  out += "\"adaptation\": \"festive\",\n";
  out += "\"mptcp_scheduler\": \"minrtt\",\n";
  out += "\"inflight\": 1,\n";
  out += "\"recovery\": true,\n";
  out += "\"time_limit_ns\": " + std::to_string(seconds(600.0).count()) +
         ",\n";
  out += "\"watchdog\": {\"max_sim_events\": 0, \"max_wall_s\": 0, "
         "\"poll_interval\": 4096},\n";
  out += "\"chunk_count\": 8,\n";
  out += "\"plan\": " + fault_plan_to_json(plan) + ",\n";
  out += "\"outcome\": " + json_quote(to_string(run.outcome)) + ",\n";
  out += "\"hung_reason\": \"\",\n";
  out += "\"expected_violations\": [";
  for (std::size_t i = 0; i < run.violations.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += json_quote(run.violations[i]);
  }
  if (!run.violations.empty()) out += "\n";
  out += "]\n}\n";
  return out;
}

TEST(ReproBundleCompat, Schema1FlatFieldsMapIntoTheSpec) {
  // Record what the defaults-spec run actually observes, then express it
  // in the old flat layout and check the loader reconstructs the spec.
  ChaosConfig cfg;
  cfg.chunk_count = 8;
  cfg.progress = nullptr;
  const FaultPlan plan = blackout_plan();
  Telemetry telemetry;
  const ChaosRunResult run =
      run_chaos_single(cfg, chaos_video(cfg), 11, plan, telemetry);

  const std::string text = schema1_bundle_text(run, plan);
  ReproBundle parsed;
  std::string err;
  ASSERT_TRUE(repro_bundle_from_json(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.schema, 1);
  EXPECT_EQ(parsed.seed, run.seed);
  EXPECT_EQ(parsed.chunk_count, 8);
  // The flat fields land in the embedded spec; unlisted fields keep the
  // chaos-era defaults — which is exactly SessionSpec{}.
  EXPECT_EQ(parsed.spec, SessionSpec{});

  // Re-serializing writes the *current* schema with the embedded spec,
  // and that form round-trips bitwise.
  const std::string upgraded = repro_bundle_to_json(parsed);
  EXPECT_NE(upgraded.find("\"schema\": 2"), std::string::npos);
  ReproBundle again;
  ASSERT_TRUE(repro_bundle_from_json(upgraded, &again, &err)) << err;
  EXPECT_EQ(again.spec, parsed.spec);
  EXPECT_EQ(repro_bundle_to_json(again), upgraded);
}

TEST(ReproBundleCompat, Schema1BundleReplaysIdentically) {
  ChaosConfig cfg;
  cfg.chunk_count = 8;
  cfg.progress = nullptr;
  const FaultPlan plan = blackout_plan();
  Telemetry telemetry;
  const ChaosRunResult run =
      run_chaos_single(cfg, chaos_video(cfg), 11, plan, telemetry);

  ReproBundle parsed;
  std::string err;
  ASSERT_TRUE(
      repro_bundle_from_json(schema1_bundle_text(run, plan), &parsed, &err))
      << err;
  const ReplayResult replay = replay_repro_bundle(parsed);
  EXPECT_TRUE(replay.matches) << (replay.mismatches.empty()
                                      ? ""
                                      : replay.mismatches.front());
  EXPECT_EQ(replay.run.outcome, run.outcome);
  EXPECT_EQ(replay.run.violations, run.violations);
}

TEST(ReproBundleCompat, Schema1BundleWithoutChunksIsRejected) {
  ChaosRunResult run;
  run.seed = 11;
  run.outcome = RunOutcome::kViolation;
  std::string text = schema1_bundle_text(run, blackout_plan());
  const std::string needle = "\"chunk_count\": 8";
  text.replace(text.find(needle), needle.size(), "\"chunk_count\": 0");
  ReproBundle parsed;
  std::string err;
  EXPECT_FALSE(repro_bundle_from_json(text, &parsed, &err));
  EXPECT_EQ(err, "bundle: \"chunk_count\" must be from 1 to 2147483647");
}

TEST(ReproBundleCompat, UnsupportedSchemaIsRejected) {
  ReproBundle b;
  const std::string text = repro_bundle_to_json(b);
  std::string bad = text;
  const std::size_t pos = bad.find("\"schema\": 2");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 11, "\"schema\": 3");
  ReproBundle parsed;
  std::string err;
  EXPECT_FALSE(repro_bundle_from_json(bad, &parsed, &err));
  EXPECT_EQ(err, "bundle: unsupported schema 3");
}

}  // namespace
}  // namespace mpdash
