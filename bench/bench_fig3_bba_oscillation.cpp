// Figure 3: bitrate oscillation of the original BBA algorithm when the
// network capacity (R = 3.4 Mbps) falls strictly between two encoding
// rates (2.41 and 3.94 Mbps). BBA-C removes the oscillation.

#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main() {
  print_header("Figure 3", "BBA bitrate oscillation at R between levels");

  const Video video = bench_video();
  // A single ~3.4 Mbps pipe (the paper quotes a stable MPTCP aggregate of
  // R = 3.4 between the 2.41 and 3.94 Mbps encoding rates).
  const ScenarioConfig net =
      constant_scenario(DataRate::mbps(3.6), DataRate::mbps(3.0));

  for (const char* algo : {"bba", "bba-c"}) {
    const SessionResult res =
        run_scheme(net, video, Scheme::kWifiOnly, algo);
    std::vector<std::pair<double, double>> pts;
    int switches_34 = 0;
    int prev = -1;
    for (const auto& c : res.chunk_log) {
      pts.emplace_back(c.chunk,
                       video.level(c.level).avg_bitrate.as_mbps());
      if (prev >= 0 && c.level != prev && c.chunk > res.chunks / 5) {
        ++switches_34;
      }
      prev = c.level;
    }
    std::printf("--- %s ---\n", algo);
    std::printf("%s\n", ascii_plot({{algo, pts}}, 72, 10, "chunk index",
                                   "video bitrate (Mbps)")
                            .c_str());
    std::printf("steady-state quality switches: %d, avg bitrate %.2f Mbps\n\n",
                switches_34, res.avg_bitrate_mbps);
  }
  std::printf("paper shape: BBA keeps flipping between the two levels "
              "around R; BBA-C locks onto the sustainable one.\n");
  return 0;
}
