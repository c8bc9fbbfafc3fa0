// Figure 11: the mobility scenario — walking away from and back toward a
// WiFi AP while streaming with FESTIVE. Three configurations: MP-DASH
// (rate-based), default MPTCP, and single-path WiFi. MP-DASH should tap
// cellular only while WiFi is weak (far from the AP); default MPTCP runs
// LTE at capacity throughout; WiFi-only loses quality in the troughs.

#include "analysis/analyzer.h"
#include "bench_common.h"
#include "trace/generators.h"
#include "util/rng.h"

using namespace mpdash;
using namespace mpdash::bench;

namespace {

ScenarioConfig mobility_net(Duration horizon) {
  Rng rng(77);
  MobilityParams mp;
  mp.peak = DataRate::mbps(5.0);
  mp.period = seconds(60.0);
  mp.horizon = horizon;
  ScenarioConfig cfg;
  cfg.wifi_down = gen_mobility_walk(mp, rng);
  cfg.lte_down = BandwidthTrace::constant(DataRate::mbps(5.0));
  return cfg;
}

void plot(const char* title, const SessionResult& res,
          const ThroughputSeries& series) {
  auto window = [](const std::vector<std::pair<double, double>>& pts) {
    std::vector<std::pair<double, double>> out;
    for (const auto& [t, v] : pts) {
      if (t >= 60.0 && t <= 120.0) out.emplace_back(t, v);
    }
    return out;
  };
  std::printf("--- %s ---\n", title);
  std::printf("%s\n",
              ascii_plot({{"WiFi", window(series.per_path[kWifiPathId])},
                          {"LTE", window(series.per_path[kCellularPathId])}},
                         72, 10, "time (s)", "Mbps")
                  .c_str());
  std::printf("cell %s MB, energy %.0f J, steady bitrate %.2f Mbps, "
              "stalls %d\n\n",
              mb(res.cell_bytes).c_str(), res.energy_j(),
              res.steady_avg_bitrate_mbps, res.stalls);
}

}  // namespace

int main() {
  print_header("Figure 11", "mobility: walking around a WiFi AP (FESTIVE)");

  const Video video = bench_video();
  const Duration horizon = video.total_duration() + seconds(120.0);
  const ScenarioConfig net = mobility_net(horizon);

  ThroughputBuilder mpd_tput, base_tput, wifi_tput;
  const SessionResult mpd =
      run_scheme(net, video, Scheme::kMpDashRate, "festive", &mpd_tput);
  const SessionResult base =
      run_scheme(net, video, Scheme::kBaseline, "festive", &base_tput);
  const SessionResult wifi =
      run_scheme(net, video, Scheme::kWifiOnly, "festive", &wifi_tput);

  plot("MP-DASH (rate-based)", mpd, mpd_tput.finish());
  plot("default MPTCP", base, base_tput.finish());
  plot("single-path WiFi", wifi, wifi_tput.finish());

  std::printf("MP-DASH vs default MPTCP: cellular saving %.1f%%, energy "
              "saving %.1f%%\n",
              saving(static_cast<double>(base.cell_bytes),
                     static_cast<double>(mpd.cell_bytes)) * 100,
              saving(base.energy_j(), mpd.energy_j()) * 100);
  std::printf("playback bitrate: MP-DASH %.2f vs default %.2f vs WiFi-only "
              "%.2f Mbps\n",
              mpd.steady_avg_bitrate_mbps, base.steady_avg_bitrate_mbps,
              wifi.steady_avg_bitrate_mbps);
  std::printf("paper shape: MP-DASH uses LTE only in WiFi troughs; saves "
              "~81%% cellular and ~47%% energy at equal bitrate; WiFi-only "
              "drops quality for half the chunks.\n");
  return 0;
}
