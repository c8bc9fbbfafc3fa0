// Figure 8: the cross-layer analysis tool's visualization. Three FESTIVE
// sessions — default MPTCP, MP-DASH rate-based, MP-DASH duration-based —
// rendered as chunk timelines (glyph = bitrate level, '#' = the fraction
// of the chunk delivered over cellular).

#include "analysis/analyzer.h"
#include "analysis/render.h"
#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main() {
  print_header("Figure 8", "analysis-tool chunk timelines (FESTIVE)");

  const Video video = bench_video();
  const ScenarioConfig net =
      constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0));

  struct Config {
    const char* title;
    Scheme scheme;
  };
  for (const Config& c :
       {Config{"default MPTCP", Scheme::kBaseline},
        Config{"MP-DASH, rate-based deadlines", Scheme::kMpDashRate},
        Config{"MP-DASH, duration-based deadlines",
               Scheme::kMpDashDuration}}) {
    const SessionResult res =
        run_scheme(net, video, c.scheme, "festive", /*record=*/true);
    AnalyzerConfig acfg;
    acfg.device = galaxy_note();
    const AnalysisReport report = analyze(res.trace, acfg);

    double cell_frac_sum = 0.0;
    for (const auto& ch : report.chunks) {
      cell_frac_sum += ch.cellular_fraction(kCellularPathId);
    }
    std::printf("--- %s ---\n", c.title);
    std::printf("%s", render_chunk_timeline(report).c_str());
    std::printf("%s", render_path_summary(report).c_str());
    std::printf("mean cellular share per chunk: %.1f%%, analysis energy: "
                "%.0f J\n\n",
                100.0 * cell_frac_sum /
                    std::max<std::size_t>(1, report.chunks.size()),
                report.energy.total_j());
  }
  std::printf("paper shape: default MPTCP shows heavy '#' on every chunk "
              "and idle gaps; MP-DASH eliminates most gaps and cellular;\n"
              "duration-based shows more cellular than rate-based on "
              "bigger-than-average chunks.\n");
  return 0;
}
