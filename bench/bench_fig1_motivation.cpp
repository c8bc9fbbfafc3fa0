// Figure 1: WiFi/LTE subflow throughput while a DASH video streams over
// vanilla MPTCP (W=3.8 Mbps, L=3.0 Mbps, GPAC adaptation).
//
// Paper's point: even though WiFi nearly suffices, default MPTCP drives
// the metered LTE link close to its full capacity.

#include "analysis/analyzer.h"
#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main() {
  print_header("Figure 1", "vanilla MPTCP drives LTE to capacity");

  ThroughputBuilder throughput;
  const SessionResult res =
      run_scheme(constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)),
                 bench_video(), Scheme::kBaseline, "gpac", &throughput);

  const ThroughputSeries series = throughput.finish();
  auto window = [](const std::vector<std::pair<double, double>>& pts) {
    std::vector<std::pair<double, double>> out;
    for (const auto& [t, v] : pts) {
      if (t >= 30.0 && t <= 90.0) out.emplace_back(t, v);
    }
    return out;
  };
  std::printf("%s\n",
              ascii_plot({{"MPTCP", window(series.total)},
                          {"WiFi", window(series.per_path[kWifiPathId])},
                          {"LTE", window(series.per_path[kCellularPathId])}},
                         72, 16, "time (s)", "throughput (Mbps)")
                  .c_str());

  OnlineStats wifi, lte;
  for (const auto& [t, v] : series.per_path[kWifiPathId]) wifi.add(v);
  for (const auto& [t, v] : series.per_path[kCellularPathId]) lte.add(v);
  std::printf("mean WiFi %.2f Mbps (cap 3.8), mean LTE %.2f Mbps (cap 3.0)\n",
              wifi.mean(), lte.mean());
  std::printf("bytes over LTE: %s MB of %s MB total (%.1f%%)\n",
              mb(res.cell_bytes).c_str(),
              mb(res.cell_bytes + res.wifi_bytes).c_str(),
              res.cell_fraction * 100);
  std::printf("paper shape: LTE runs near its full capacity — reproduced "
              "when LTE share is large (>%d%%).\n",
              30);
  return 0;
}
