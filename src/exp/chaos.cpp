#include "exp/chaos.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <utility>

#include "exp/repro.h"

namespace mpdash {

const char* to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kOk: return "ok";
    case RunOutcome::kViolation: return "violation";
    case RunOutcome::kHung: return "hung";
    case RunOutcome::kCrashed: return "crashed";
  }
  return "?";
}

const char kChaosSeriesHeader[] =
    "seed,time_s,buffer_s,level,stalls,chunks,wifi_bytes,cell_bytes,"
    "cell_share\n";

std::string qoe_series_csv(const MetricsTimeline& timeline,
                           std::uint64_t seed) {
  std::string out;
  char buf[256];
  for (const MetricsSnapshot& s : timeline.snapshots()) {
    auto val = [&s](const char* name) {
      const MetricValue* v = s.find(name);
      return v ? v->value : 0.0;
    };
    const double wifi = val("link.wifi.down.delivered_bytes") +
                        val("link.wifi.up.delivered_bytes");
    const double cell = val("link.lte.down.delivered_bytes") +
                        val("link.lte.up.delivered_bytes");
    const double total = wifi + cell;
    std::snprintf(buf, sizeof buf,
                  "%llu,%.3f,%.6f,%.0f,%.0f,%.0f,%.0f,%.0f,%.6f\n",
                  static_cast<unsigned long long>(seed), to_seconds(s.at),
                  val("player.buffer_s"), val("player.level"),
                  val("player.stalls"), val("player.chunks"), wifi, cell,
                  total > 0.0 ? cell / total : 0.0);
    out += buf;
  }
  return out;
}

std::string ChaosRunResult::fingerprint() const {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "seed=%llu out=%s done=%d t=%.6f chunks=%d abandoned=%d retries=%d "
      "stalls=%d sf=%d rev=%d reinj=%d to=%d rt=%d faults=%d skip=%d "
      "viol=%zu",
      static_cast<unsigned long long>(seed), to_string(outcome),
      completed ? 1 : 0, session_s, chunks_delivered, chunks_abandoned,
      chunk_retries, stalls, subflow_failures, subflow_revivals,
      reinjected_packets, http_timeouts, http_retries, faults_started,
      faults_skipped, violations.size());
  std::string out = buf;
  // The hung reason is deterministic for sim-event trips; including it
  // keeps a quarantined run's digest meaningful across worker counts.
  if (!hung_reason.empty()) out += " why=" + hung_reason;
  return out;
}

void OutcomeCounts::add(RunOutcome o) {
  switch (o) {
    case RunOutcome::kOk: ++ok; break;
    case RunOutcome::kViolation: ++violation; break;
    case RunOutcome::kHung: ++hung; break;
    case RunOutcome::kCrashed: ++crashed; break;
  }
}

int ChaosCampaignResult::violation_count() const {
  int n = 0;
  for (const ChaosRunResult& r : runs) {
    n += static_cast<int>(r.violations.size());
  }
  return n;
}

std::vector<std::string> check_chaos_invariants(const SessionResult& res,
                                                int chunk_count) {
  std::vector<std::string> v;
  auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };

  if (!res.completed) {
    fail("session hung: time limit reached before playback finished");
  }
  if (res.manifest_failed) {
    // A cleanly-failed manifest ends the session with zero chunks; any
    // delivered chunk alongside it means the player state machine broke.
    if (res.chunks != 0) {
      fail("manifest failed but " + std::to_string(res.chunks) +
           " chunks delivered");
    }
  } else if (res.chunks + res.chunks_abandoned != chunk_count) {
    fail("chunk accounting: delivered " + std::to_string(res.chunks) +
         " + abandoned " + std::to_string(res.chunks_abandoned) + " != " +
         std::to_string(chunk_count));
  }
  if (res.server_data_seq_high != res.client_bytes_in_order) {
    fail("byte accounting server->client: scheduled " +
         std::to_string(res.server_data_seq_high) + ", consumed in order " +
         std::to_string(res.client_bytes_in_order));
  }
  if (res.client_data_seq_high != res.server_bytes_in_order) {
    fail("byte accounting client->server: scheduled " +
         std::to_string(res.client_data_seq_high) + ", consumed in order " +
         std::to_string(res.server_bytes_in_order));
  }
  if (res.reinject_backlog != 0) {
    fail("reinjection backlog not drained: " +
         std::to_string(res.reinject_backlog) + " segments stranded");
  }
  if (!res.faults_quiescent) {
    fail("fault windows still open at session end");
  }
  if (res.faults_skipped != 0) {
    fail(std::to_string(res.faults_skipped) +
         " fault events had no attachable target");
  }
  return v;
}

std::vector<std::string> check_counter_invariants(MetricsRegistry& m,
                                                  const SessionResult& res) {
  std::vector<std::string> v;
  auto counter_is = [&](const char* name, double expect, const char* what) {
    const double got = m.counter(name).value();
    if (got != expect) {
      v.push_back(std::string("counter ") + name + " = " +
                  std::to_string(got) + ", " + what + " = " +
                  std::to_string(expect));
    }
  };
  counter_is("player.chunks", res.chunks, "result chunks");
  counter_is("player.chunks_abandoned", res.chunks_abandoned,
             "result abandoned");
  counter_is("player.chunk_retries", res.chunk_retries, "result retries");
  counter_is("player.stalls", res.stalls, "result stalls");
  counter_is("fault.injected", res.faults_started, "faults started");
  counter_is("http.timeouts", res.http_timeouts, "result http timeouts");
  counter_is("http.retries", res.http_retries, "result http retries");
  const double sf = m.counter("mptcp.subflow_failures").value() +
                    m.counter("mptcp.client.subflow_failures").value();
  if (sf != res.subflow_failures) {
    v.push_back("subflow-failure counters = " + std::to_string(sf) +
                ", result = " + std::to_string(res.subflow_failures));
  }
  const double reinj = m.counter("mptcp.reinjected_packets").value() +
                       m.counter("mptcp.client.reinjected_packets").value();
  if (reinj != res.reinjected_packets) {
    v.push_back("reinjection counters = " + std::to_string(reinj) +
                ", result = " + std::to_string(res.reinjected_packets));
  }
  return v;
}

std::vector<std::string> check_pipeline_invariants(
    const std::vector<TraceRecord>& trace, int max_retries) {
  std::vector<std::string> v;
  std::set<SpanId> closed;
  for (const TraceRecord& r : trace) {
    if (r.type == TraceType::kSpanStart) {
      if (r.span != 0 && closed.count(r.span) > 0) {
        v.push_back("span " + std::to_string(r.span) +
                    " reopened after close at t=" +
                    std::to_string(to_seconds(r.at)));
      }
      continue;
    }
    if (r.type == TraceType::kSpanEnd) {
      closed.insert(r.span);
      continue;
    }
    if (r.type != TraceType::kHttp || r.label == nullptr) continue;
    if (std::strcmp(r.label, "response") == 0) {
      if (r.span != 0 && closed.count(r.span) > 0) {
        v.push_back("response delivered to dead span " +
                    std::to_string(r.span) + " at t=" +
                    std::to_string(to_seconds(r.at)));
      }
    } else if (std::strcmp(r.label, "retry") == 0) {
      // Retry records carry the attempt number after increment, so a
      // budget-honoring client never logs one above max_retries.
      if (r.level > max_retries) {
        v.push_back("retry budget exceeded: attempt " +
                    std::to_string(r.level) + " > " +
                    std::to_string(max_retries) + " on span " +
                    std::to_string(r.span));
      }
    }
  }
  return v;
}

SessionSpec default_chaos_spec() {
  SessionSpec s;  // chaos-shaped defaults (recovery on, 600 s limit)
  s.watchdog = WatchdogConfig{200'000'000, 900.0};
  return s;
}

Video chaos_video(const ChaosConfig& cfg) {
  // Fixed content seed: every chaos run streams the same bytes; only the
  // network and the fault plan vary with the run seed.
  return Video("chaos", seconds(2.0), cfg.chunk_count,
               {DataRate::mbps(0.6), DataRate::mbps(1.2), DataRate::mbps(2.4)},
               0.1, 42);
}

ChaosRunResult run_chaos_single(const ChaosConfig& cfg, const Video& video,
                                std::uint64_t seed, const FaultPlan& plan,
                                Telemetry& telemetry) {
  Scenario scenario(resolve_scenario_config(cfg.session, seed));
  SessionConfig scfg = resolve_session_config(cfg.session, seed);
  SessionEnv env;
  env.telemetry = &telemetry;
  env.faults = &plan;

  MetricsTimeline timeline;
  if (cfg.series_interval > kDurationZero) {
    env.metrics = &timeline;
    scfg.metrics_interval = cfg.series_interval;
  }

  // Always-on request-lifecycle capture for the pipelined audit. Sinks are
  // pure observers, so attaching one never perturbs the simulation or the
  // campaign digest. Attribution mode widens the mask to everything the
  // span model consumes (faults, scheduler decisions, player events,
  // payload deliveries).
  std::uint32_t capture_mask =
      (1u << static_cast<unsigned>(TraceType::kHttp)) |
      (1u << static_cast<unsigned>(TraceType::kSpanStart)) |
      (1u << static_cast<unsigned>(TraceType::kSpanEnd));
  if (cfg.attribution) capture_mask |= span_model_trace_mask();
  TraceCollector pipeline_capture;
  TypeFilterSink pipeline_filter(&pipeline_capture, capture_mask);
  telemetry.add_sink(&pipeline_filter);

  // Per-run trace capture: sinks attach to the run-private telemetry, so
  // any --jobs interleaving writes each file from exactly one thread.
  std::string trace_path;
  std::optional<JsonlSink> jsonl;
  if (!cfg.trace_path.empty()) {
    trace_path = cfg.trace_path;
    if (cfg.seed_count > 1) trace_path += "." + std::to_string(seed);
    jsonl.emplace(trace_path, cfg.trace_types);
    telemetry.add_sink(&*jsonl);
  }

  if (cfg.pre_session_hook) cfg.pre_session_hook(scenario.loop(), seed);

  ChaosRunResult out;
  out.seed = seed;
  SessionResult res;
  bool hung = false;
  try {
    res = run_streaming_session(scenario, video, scfg, env);
  } catch (const WatchdogTripped& e) {
    // Quarantine: the simulation was killed mid-run, so there is no
    // SessionResult to audit — report the outcome and keep the campaign
    // moving. Any other exception still propagates (→ kCrashed upstream).
    hung = true;
    out.outcome = RunOutcome::kHung;
    out.hung_reason = e.what();
  }

  telemetry.remove_sink(&pipeline_filter);
  if (jsonl) {
    telemetry.remove_sink(&*jsonl);
    // A trace is an artifact, not an invariant: report it the way
    // emit_repro_bundle reports a bundle, and keep the run's outcome.
    if (!jsonl->close()) {
      std::fprintf(stderr, "chaos: trace for seed %llu not written: "
                   "cannot write %s\n",
                   static_cast<unsigned long long>(seed), trace_path.c_str());
    }
  }

  if (hung) return out;

  out.completed = res.completed;
  out.session_s = res.session_s;
  out.chunks_delivered = res.chunks;
  out.chunks_abandoned = res.chunks_abandoned;
  out.chunk_retries = res.chunk_retries;
  out.stalls = res.stalls;
  out.subflow_failures = res.subflow_failures;
  out.subflow_revivals = res.subflow_revivals;
  out.reinjected_packets = res.reinjected_packets;
  out.http_timeouts = res.http_timeouts;
  out.http_retries = res.http_retries;
  out.faults_started = res.faults_started;
  out.faults_skipped = res.faults_skipped;
  out.manifest_failed = res.manifest_failed;
  out.violations = check_chaos_invariants(res, video.chunk_count());
  {
    std::vector<std::string> pv = check_pipeline_invariants(
        pipeline_capture.records(), scfg.http_recovery.max_retries);
    out.violations.insert(out.violations.end(),
                          std::make_move_iterator(pv.begin()),
                          std::make_move_iterator(pv.end()));
  }
  if (cfg.series_interval > kDurationZero) {
    out.series_csv = qoe_series_csv(timeline, seed);
  }
  if (cfg.attribution) {
    SpanModel model = build_span_model(pipeline_capture.records());
    attribute_misses(&model, kWifiPathId);
    out.attribution = rollup_span_model(model, std::to_string(seed));
    out.has_attribution = true;
  }

  {
    std::vector<std::string> cv =
        check_counter_invariants(telemetry.metrics(), res);
    out.violations.insert(out.violations.end(),
                          std::make_move_iterator(cv.begin()),
                          std::make_move_iterator(cv.end()));
  }
  out.outcome = out.violations.empty() ? RunOutcome::kOk
                                       : RunOutcome::kViolation;
  return out;
}

ChaosCampaignResult run_chaos_campaign(const ChaosConfig& cfg) {
  const Video video = chaos_video(cfg);
  Campaign<ChaosRunResult> campaign("chaos", cfg.base_seed);
  for (int i = 0; i < cfg.seed_count; ++i) {
    campaign.add("chaos/" + std::to_string(i),
                 [&cfg, &video](RunContext& ctx) {
                   const FaultPlan plan = random_fault_plan(ctx.seed, cfg.plan);
                   ChaosRunResult r = run_chaos_single(cfg, video, ctx.seed,
                                                       plan, ctx.telemetry);
                   if (!cfg.bundle_dir.empty() && !r.ok()) {
                     emit_repro_bundle(cfg.bundle_dir,
                                       make_repro_bundle(cfg, r, plan));
                   }
                   return r;
                 });
  }
  return run_campaign<ChaosCampaignResult>(campaign, cfg.jobs, cfg.progress);
}

}  // namespace mpdash
