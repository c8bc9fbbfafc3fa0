// Ablations over MP-DASH's design choices (not a paper table; DESIGN.md
// calls these out):
//   1. alpha — the deadline safety factor (paper §7.2.1 sweeps it for
//      downloads; here for full streaming sessions),
//   2. deadline policy x buffer capacity — how much of the rate-based
//      advantage survives small buffers,
//   3. throughput estimator — Holt-Winters vs EWMA vs windowed harmonic
//      mean inside Algorithm 1 (trace-driven),
//   4. enable debounce — responsiveness vs radio-waking noise.

#include "core/online_simulator.h"
#include "predict/ewma.h"
#include "predict/harmonic.h"
#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

namespace {

void ablate_alpha(const Video& video) {
  std::printf("--- ablation 1: alpha (FESTIVE, W3.8/L3.0, rate-based) ---\n");
  TextTable table({"alpha", "cell MB", "energy J", "avg Mbps", "misses"});
  for (double alpha : {0.7, 0.8, 0.9, 1.0}) {
    Scenario sc(constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)));
    SessionConfig cfg;
    cfg.scheme = Scheme::kMpDashRate;
    cfg.adaptation = "festive";
    cfg.alpha = alpha;
    const SessionResult res = run_streaming_session(sc, video, cfg);
    table.add_row({TextTable::num(alpha, 1), mb(res.cell_bytes),
                   TextTable::num(res.energy_j(), 0),
                   TextTable::num(res.steady_avg_bitrate_mbps),
                   std::to_string(res.deadline_misses)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: smaller alpha = more cellular (conservative), "
              "fewer misses.\n\n");
}

void ablate_buffer(const Video& video) {
  std::printf("--- ablation 2: deadline policy x buffer capacity ---\n");
  TextTable table({"buffer s", "policy", "cell MB", "stalls", "avg Mbps"});
  for (double cap : {16.0, 24.0, 40.0}) {
    for (Scheme scheme : {Scheme::kMpDashDuration, Scheme::kMpDashRate}) {
      Scenario sc(
          constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)));
      SessionConfig cfg;
      cfg.scheme = scheme;
      cfg.adaptation = "festive";
      cfg.player.buffer_capacity = seconds(cap);
      cfg.player.startup_buffer = seconds(std::min(8.0, cap / 2));
      const SessionResult res = run_streaming_session(sc, video, cfg);
      table.add_row({TextTable::num(cap, 0),
                     scheme == Scheme::kMpDashRate ? "rate" : "duration",
                     mb(res.cell_bytes), std::to_string(res.stalls),
                     TextTable::num(res.steady_avg_bitrate_mbps)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: smaller buffers shrink the deadline-extension "
              "headroom, so savings drop but stalls stay at zero.\n\n");
}

void ablate_estimator() {
  std::printf("--- ablation 3: throughput estimator inside Algorithm 1 ---\n");
  TextTable table({"profile", "Holt-Winters", "EWMA", "harmonic-20"});
  for (const auto& p : table1_profiles()) {
    const Duration deadline = p.deadlines[p.deadlines.size() / 2];
    const Duration horizon = deadline + seconds(120.0);
    const auto wifi = p.wifi_trace(horizon);
    const auto cell = p.cell_trace(horizon);
    auto cellpct = [&](std::unique_ptr<ThroughputEstimator> e) {
      const OnlineSimResult r = simulate_online_two_path(
          wifi, cell, p.file_size, deadline, {}, std::move(e));
      return TextTable::pct(r.costly_fraction, 1) +
             (r.deadline_missed ? " MISS" : "");
    };
    table.add_row({p.name, cellpct(std::make_unique<HoltWinters>()),
                   cellpct(std::make_unique<Ewma>(0.25)),
                   cellpct(std::make_unique<HarmonicMean>(20))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: HW (level+trend) tracks non-stationary WiFi "
              "better, using less cellular at equal miss rates.\n\n");
}

void ablate_debounce(const Video& video) {
  std::printf("--- ablation 4: enable-debounce ticks ---\n");
  TextTable table({"debounce", "cell MB", "energy J", "misses"});
  for (int ticks : {1, 2, 4}) {
    Scenario sc(constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)));
    SessionConfig cfg;
    cfg.scheme = Scheme::kMpDashRate;
    cfg.adaptation = "festive";
    cfg.debounce_ticks = ticks;
    const SessionResult res = run_streaming_session(sc, video, cfg);
    table.add_row({std::to_string(ticks), mb(res.cell_bytes),
                   TextTable::num(res.energy_j(), 0),
                   std::to_string(res.deadline_misses)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: debounce 1 reacts to slow-start-restart dips "
              "(more cellular + more radio wakes); large debounce risks "
              "late assists.\n");
}

}  // namespace

int main() {
  print_header("Ablations", "MP-DASH design-choice sweeps");
  const Video video = bench_video();
  ablate_alpha(video);
  ablate_buffer(video);
  ablate_estimator();
  ablate_debounce(video);
  return 0;
}
