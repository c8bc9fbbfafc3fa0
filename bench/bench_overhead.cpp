// Runtime overhead (paper §8): "MP-DASH incurs negligible runtime
// overhead, as both the scheduling algorithm and the Holt-Winters
// prediction have low complexity." perfbench's layer drivers time the
// per-call costs (`python3 perfbench/run.py --workload field --trace 1`:
// core.ns_per_decision, predict.ns_per_sample, http.ns_per_response,
// sim.ns_per_event.*); this binary is the gate that keeps the telemetry
// layer from eroding them.
//
// `bench_overhead --check` times quick sessions four ways — telemetry
// detached; idle-attached (every counter live, no sinks); always-on (idle
// plus the 1 s metrics snapshotter, with span allocation short-circuiting
// on `tracing()`); and fully traced (a span-model builder fed live, what
// `chaos --attrib` pays). The gate is the marginal cost of the
// observability machinery: always-on must stay within 2% of the
// idle-attached budget when MPDASH_OVERHEAD_STRICT=1. The detached→idle
// instrumentation cost and the opt-in full-tracing cost are reported and
// recorded in BENCH_overhead.json but not gated.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "analysis/spans.h"
#include "bench_common.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "telemetry/telemetry.h"

namespace mpdash {
namespace {

Video overhead_video() {
  return Video("Overhead", seconds(4.0), 10,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 7);
}

SessionResult overhead_session(Telemetry* telemetry,
                               MetricsTimeline* timeline = nullptr,
                               int inflight = 1) {
  Scenario scenario(
      constant_scenario(DataRate::mbps(6.0), DataRate::mbps(4.0)));
  SessionConfig cfg;
  cfg.scheme = Scheme::kMpDashRate;
  cfg.player.max_inflight_chunks = inflight;
  SessionEnv env;
  env.telemetry = telemetry;
  env.metrics = timeline;
  SessionResult res =
      run_streaming_session(scenario, overhead_video(), cfg, env);
  if (telemetry) scenario.set_telemetry(nullptr);
  return res;
}

// The everything-on configuration: the span model folded live (so every
// span and record is materialized) plus the registry snapshotter on its
// default 1 s cadence.
SessionResult overhead_session_full(MetricsTimeline* timeline) {
  Telemetry telemetry;
  SpanModelBuilder spans;
  TypeFilterSink filter(&spans, span_model_trace_mask());
  telemetry.add_sink(&filter);
  return overhead_session(&telemetry, timeline);
}

// Interleaved A/B/C/D timing; each sample batches several sessions so a
// single descheduling blip cannot swing it, and taking each config's
// minimum across rounds discards the rest of the CI noise (timing noise
// is additive-positive, so the minimum is the tightest estimate of the
// true cost).
int run_overhead_check() {
  constexpr int kRounds = 9;
  constexpr int kMaxRounds = 27;
  constexpr int kBatch = 5;
  constexpr double kBudget = 0.02;
  std::vector<double> off_ms, idle_ms, on_ms, full_ms, pidle_ms, pon_ms;
  overhead_session(nullptr);  // warm caches/allocator
  const auto round = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int j = 0; j < kBatch; ++j) overhead_session(nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    for (int j = 0; j < kBatch; ++j) {
      Telemetry telemetry;
      overhead_session(&telemetry);
    }
    const auto t2 = std::chrono::steady_clock::now();
    for (int j = 0; j < kBatch; ++j) {
      Telemetry telemetry;
      MetricsTimeline timeline;
      overhead_session(&telemetry, &timeline);
    }
    const auto t3 = std::chrono::steady_clock::now();
    for (int j = 0; j < kBatch; ++j) {
      MetricsTimeline timeline;
      overhead_session_full(&timeline);
    }
    const auto t4 = std::chrono::steady_clock::now();
    // Pipelined lanes (3-deep prefetch): the span stack holds several
    // open spans and the adapter re-arms over the whole outstanding set,
    // so the observability budget is re-checked under that load too.
    for (int j = 0; j < kBatch; ++j) {
      Telemetry telemetry;
      overhead_session(&telemetry, nullptr, 3);
    }
    const auto t5 = std::chrono::steady_clock::now();
    for (int j = 0; j < kBatch; ++j) {
      Telemetry telemetry;
      MetricsTimeline timeline;
      overhead_session(&telemetry, &timeline, 3);
    }
    const auto t6 = std::chrono::steady_clock::now();
    off_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kBatch);
    idle_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count() / kBatch);
    on_ms.push_back(
        std::chrono::duration<double, std::milli>(t3 - t2).count() / kBatch);
    full_ms.push_back(
        std::chrono::duration<double, std::milli>(t4 - t3).count() / kBatch);
    pidle_ms.push_back(
        std::chrono::duration<double, std::milli>(t5 - t4).count() / kBatch);
    pon_ms.push_back(
        std::chrono::duration<double, std::milli>(t6 - t5).count() / kBatch);
  };
  for (int i = 0; i < kRounds; ++i) round();
  double off, idle, on, full, pidle, pon;
  double idle_cost, span_snap, full_cost, pipe_span_snap;
  const auto estimate = [&] {
    off = *std::min_element(off_ms.begin(), off_ms.end());
    idle = *std::min_element(idle_ms.begin(), idle_ms.end());
    on = *std::min_element(on_ms.begin(), on_ms.end());
    full = *std::min_element(full_ms.begin(), full_ms.end());
    pidle = *std::min_element(pidle_ms.begin(), pidle_ms.end());
    pon = *std::min_element(pon_ms.begin(), pon_ms.end());
    idle_cost = off > 0.0 ? (idle - off) / off : 0.0;
    span_snap = idle > 0.0 ? (on - idle) / idle : 0.0;
    full_cost = idle > 0.0 ? (full - idle) / idle : 0.0;
    pipe_span_snap = pidle > 0.0 ? (pon - pidle) / pidle : 0.0;
  };
  estimate();
  // The minimum estimator only tightens with more samples, so a gate
  // failure after the base rounds may just mean one config's minimum has
  // not converged yet: keep sampling until it passes or the cap is hit.
  while ((span_snap > kBudget || pipe_span_snap > kBudget) &&
         static_cast<int>(off_ms.size()) < kMaxRounds) {
    round();
    estimate();
  }
  std::printf("telemetry overhead check: detached %.2f ms, idle-attached "
              "%.2f ms (%+.2f%%), +snapshotter/spans %.2f ms (%+.2f%% vs "
              "idle), full tracing %.2f ms (%+.2f%% vs idle); pipelined "
              "inflight=3 idle %.2f ms, always-on %.2f ms (%+.2f%%)\n",
              off, idle, idle_cost * 100.0, on, span_snap * 100.0, full,
              full_cost * 100.0, pidle, pon, pipe_span_snap * 100.0);
  bench::current_bench_id() = "overhead";
  char line[448];
  std::snprintf(line, sizeof line,
                "{\"bench\":\"overhead\",\"check\":{\"detached_ms\":%.3f,"
                "\"idle_ms\":%.3f,\"always_on_ms\":%.3f,\"traced_ms\":%.3f,"
                "\"idle_overhead\":%.4f,\"span_snapshot_overhead\":%.4f,"
                "\"traced_overhead\":%.4f,\"pipelined_idle_ms\":%.3f,"
                "\"pipelined_always_on_ms\":%.3f,"
                "\"pipelined_span_snapshot_overhead\":%.4f}}\n",
                off, idle, on, full, idle_cost, span_snap, full_cost, pidle,
                pon, pipe_span_snap);
  bench::append_bench_lines(line);
  const char* strict = std::getenv("MPDASH_OVERHEAD_STRICT");
  if (strict && strict[0] == '1') {
    if (span_snap > 0.02) {
      std::fprintf(stderr,
                   "FAIL: span+snapshotter overhead %.2f%% exceeds the 2%% "
                   "idle budget\n",
                   span_snap * 100.0);
      return 1;
    }
    if (pipe_span_snap > 0.02) {
      std::fprintf(stderr,
                   "FAIL: pipelined span+snapshotter overhead %.2f%% "
                   "exceeds the 2%% idle budget\n",
                   pipe_span_snap * 100.0);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace mpdash

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--check") == 0) {
    return mpdash::run_overhead_check();
  }
  std::fprintf(stderr, "usage: %s --check\n", argv[0]);
  return 2;
}
