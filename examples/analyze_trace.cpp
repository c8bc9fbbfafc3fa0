// Cross-layer analysis tool demo (paper §6): folds a streaming session's
// trace (packets and the player's kPlayer events) as it is emitted,
// reconstructing chunks from the wire (MPTCP data sequencing -> HTTP
// framing -> DASH chunks), then prints per-path usage, per-chunk cellular
// attribution, stalls, and the Figure 8-style ASCII timeline. Optionally
// dumps the player's events as JSONL, the trace format `mpdash_trace`
// reads.
//
// Usage: analyze_trace [scheme: baseline|rate|duration] [events.jsonl]

#include <cstdio>
#include <optional>

#include "analysis/analyzer.h"
#include "analysis/render.h"
#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"

using namespace mpdash;

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "rate";
  Scheme scheme = Scheme::kMpDashRate;
  if (mode == "baseline") scheme = Scheme::kBaseline;
  if (mode == "duration") scheme = Scheme::kMpDashDuration;

  const Video video("Analysis clip", seconds(4.0), 40,
                    {DataRate::mbps(0.58), DataRate::mbps(1.01),
                     DataRate::mbps(1.47), DataRate::mbps(2.41),
                     DataRate::mbps(3.94)},
                    0.12, 42);

  AnalysisBuilder analysis;
  Telemetry telemetry;
  telemetry.add_sink(&analysis);
  std::optional<JsonlSink> events;  // the kPlayer records only
  if (argc > 2) {
    events.emplace(argv[2], 1u << static_cast<unsigned>(TraceType::kPlayer));
    telemetry.add_sink(&*events);
  }

  Scenario scenario(
      constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0)));
  SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.adaptation = "festive";
  run_streaming_session(scenario, video, cfg, {.telemetry = &telemetry});
  const AnalysisReport report = analysis.finish();

  std::printf("scheme: %s — %zu chunks reconstructed\n\n", to_string(scheme),
              report.chunks.size());
  std::printf("%s\n", render_chunk_timeline(report).c_str());
  std::printf("%s\n", render_path_summary(report).c_str());

  std::printf("per-chunk cellular share (first 10):\n");
  for (std::size_t i = 0; i < report.chunks.size() && i < 10; ++i) {
    const auto& c = report.chunks[i];
    std::printf("  chunk %2d level %d: %7lld B, %.0f%% cellular, "
                "%.2f s on the wire\n",
                c.chunk, c.level, static_cast<long long>(c.total_bytes),
                c.cellular_fraction(kCellularPathId) * 100,
                to_seconds(c.end - c.start));
  }
  std::printf("\nstalls: %zu, switches: %d, radio energy: %.0f J "
              "(WiFi %.0f + LTE %.0f)\n",
              report.stalls.size(), report.quality_switches,
              report.energy.total_j(), report.energy.wifi.total_j(),
              report.energy.lte.total_j());

  if (events) {
    if (!events->close()) {
      std::fprintf(stderr, "cannot write %s\n", argv[2]);
      return 1;
    }
    std::printf("player events written to %s\n", argv[2]);
  }
  return 0;
}
