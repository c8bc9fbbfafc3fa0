#pragma once
// The Multipath Video Analysis Tool (paper §6): correlates the packet
// records of a trace with the player's kPlayer records in the same trace
// across protocol layers (MPTCP data sequencing, HTTP framing, DASH chunk
// structure) to produce per-chunk delivery breakdowns, path utilization,
// rebuffering and switch statistics, and radio energy estimates.

#include <vector>

#include "energy/accounting.h"
#include "http/parser.h"
#include "telemetry/trace_sink.h"

namespace mpdash {

// One reconstructed HTTP response (== one chunk or the manifest).
struct ChunkDelivery {
  int index = 0;           // order on the wire
  int chunk = -1;          // DASH chunk number (-1: manifest/unknown)
  int level = -1;          // bitrate level the player requested
  Bytes total_bytes = 0;   // response body bytes
  Bytes bytes_per_path[8] = {};  // payload attribution by path id
  TimePoint start = kTimeZero;   // first payload byte delivered
  TimePoint end = kTimeZero;     // last payload byte delivered

  double cellular_fraction(int cellular_path_id) const {
    return total_bytes > 0 ? static_cast<double>(
                                 bytes_per_path[cellular_path_id]) /
                                 static_cast<double>(total_bytes)
                           : 0.0;
  }
};

struct PathUsage {
  int path_id = 0;
  Bytes data_bytes_down = 0;   // delivered data payload
  Bytes wire_bytes_down = 0;   // incl. headers + retransmissions
  Bytes wire_bytes_up = 0;     // acks + requests
  std::size_t packets = 0;
  std::size_t drops = 0;
  std::size_t retransmissions = 0;

  Bytes wire_bytes_total() const { return wire_bytes_down + wire_bytes_up; }
};

struct StallInterval {
  TimePoint start = kTimeZero;
  TimePoint end = kTimeZero;
};

struct AnalysisReport {
  std::vector<ChunkDelivery> chunks;
  std::vector<PathUsage> paths;
  std::vector<StallInterval> stalls;
  int quality_switches = 0;
  Duration session_length = kDurationZero;
  SessionEnergy energy;

  const PathUsage* path(int id) const;
};

struct AnalyzerConfig {
  int wifi_path_id = 0;
  int cellular_path_id = 1;
  DeviceEnergyProfile device;
};

// Runs the full cross-layer analysis on a telemetry trace: packet records
// drive the network half, kPlayer records give the requested (level,
// chunk) order, the stalls and the switches, and every other record type
// is ignored, so a full mixed trace (SessionConfig::record_trace) can be
// passed as-is.
AnalysisReport analyze(const std::vector<TraceRecord>& trace,
                       const AnalyzerConfig& config);

// Per-interval path throughput series (for Figure 1/6/11-style plots):
// returns (time_s, mbps) points per path plus the aggregate.
struct ThroughputSeries {
  std::vector<std::pair<double, double>> total;
  std::vector<std::pair<double, double>> per_path[8];
};
ThroughputSeries throughput_series(const std::vector<TraceRecord>& trace,
                                   Duration interval = milliseconds(500));

}  // namespace mpdash
