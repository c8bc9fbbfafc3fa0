// Figure 6: 60-second traffic patterns of (top) MPTCP with the cellular
// path throttled at 700 kbps, (middle) MP-DASH, and (bottom) default
// MPTCP. The throttled configuration "dribbles" LTE continuously; MP-DASH
// leaves LTE silent except for adaptive assists.

#include "analysis/analyzer.h"
#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

namespace {

void plot_session(const char* title, const SessionResult& res,
                  const ThroughputSeries& series) {
  auto window = [](const std::vector<std::pair<double, double>>& pts) {
    std::vector<std::pair<double, double>> out;
    for (const auto& [t, v] : pts) {
      if (t >= 30.0 && t <= 90.0) out.emplace_back(t, v);
    }
    return out;
  };
  std::printf("--- %s ---\n", title);
  std::printf("%s\n",
              ascii_plot({{"WiFi", window(series.per_path[kWifiPathId])},
                          {"LTE", window(series.per_path[kCellularPathId])}},
                         72, 10, "time (s)", "Mbps")
                  .c_str());
  // LTE duty cycle: fraction of 500 ms intervals with any LTE traffic.
  int busy = 0, total = 0;
  for (const auto& [t, v] : series.per_path[kCellularPathId]) {
    (void)t;
    busy += v > 0.01;
  }
  total = static_cast<int>(res.session_s / 0.5);
  std::printf("LTE duty cycle: %.0f%% of intervals, cell bytes %s MB, "
              "energy %.0f J\n\n",
              100.0 * busy / std::max(1, total), mb(res.cell_bytes).c_str(),
              res.energy_j());
}

}  // namespace

int main() {
  print_header("Figure 6", "traffic patterns: throttle / MP-DASH / default");
  const Video video = bench_video();

  {
    ScenarioConfig net =
        constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0));
    ShaperConfig shaper;
    shaper.rate = DataRate::kbps(700.0);
    net.lte_throttle = shaper;
    Scenario scenario(net);
    SessionConfig cfg;
    cfg.scheme = Scheme::kBaseline;
    cfg.adaptation = "gpac";
    ThroughputBuilder throughput;
    Telemetry telemetry;
    telemetry.add_sink(&throughput);
    const SessionResult res =
        run_streaming_session(scenario, video, cfg, {.telemetry = &telemetry});
    plot_session("throttle 700 kbps (LTE dribbles)", res, throughput.finish());
  }
  for (const auto& [title, scheme] :
       {std::pair{"MP-DASH (LTE adaptive bursts only)", Scheme::kMpDashRate},
        std::pair{"default MPTCP (LTE at capacity)", Scheme::kBaseline}}) {
    ThroughputBuilder throughput;
    const SessionResult res = run_scheme(
        constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)), video,
        scheme, "gpac", &throughput);
    plot_session(title, res, throughput.finish());
  }

  std::printf("paper shape: throttling keeps a thin continuous LTE trickle; "
              "MP-DASH's LTE duty cycle is the lowest of the three.\n");
  return 0;
}
