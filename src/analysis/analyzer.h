#pragma once
// The Multipath Video Analysis Tool (paper §6): correlates a run's packet
// records with the player's kPlayer records in the same record stream
// across protocol layers (MPTCP data sequencing, HTTP framing, DASH chunk
// structure) to produce per-chunk delivery breakdowns, path utilization,
// rebuffering and switch statistics, and radio energy estimates. Both of
// its passes are trace sinks that fold each record as it is emitted, so
// no run holds its records for them.

#include <array>
#include <map>
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

// Folds a run's records into the cross-layer analysis as they are
// emitted: attach it to the run's Telemetry, then call finish(). Packet
// records drive the network half (a delivered data record's payload is
// read while the record is emitted), kPlayer records give the requested
// (level, chunk) order, the stalls and the switches, and every other
// record type is ignored. The HTTP parser's callbacks hold `this`, so a
// builder is neither copied nor moved.
class AnalysisBuilder final : public TraceSink {
 public:
  AnalysisBuilder();
  AnalysisBuilder(const AnalysisBuilder&) = delete;
  AnalysisBuilder& operator=(const AnalysisBuilder&) = delete;

  void on_record(const TraceRecord& r) override;

  // Parses the bytes still waiting past a hole in the downlink stream,
  // gives the i-th media response the i-th requested (level, chunk),
  // prices the radio energy (path 0 as WiFi, path 1 as LTE, on the
  // Galaxy Note profile) and hands over the report. Call once, after the
  // last record.
  AnalysisReport finish();

 private:
  // A delivery past a hole in the stream; `record.payload` points at the
  // copy of its payload.
  struct Waiting {
    TraceRecord record;
    WireData payload;
  };

  void on_downlink_data(const TraceRecord& r);
  // Feeds r's payload to the parser; its body bytes count toward r's path.
  void parse(const TraceRecord& r);
  void on_player(const TraceRecord& r);

  AnalysisReport report_;
  std::map<int, PathUsage> usage_;
  std::vector<ByteEvent> wifi_events_, lte_events_;

  // HTTP reconstruction: the downlink byte stream is parsed in data_seq
  // order, each data_seq's first delivery only. A record past a hole
  // waits, with a copy of its payload, until the hole fills or finish().
  HttpStreamParser parser_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Waiting> waiting_;
  const TraceRecord* feeding_ = nullptr;  // the record being parsed
  ChunkDelivery current_;
  bool is_media_ = false;
  std::size_t media_heads_ = 0;
  // Per report chunk, the ordinal of its media response head; finish()
  // maps it onto `requested_`, the kChunkRequest (level, chunk) pairs in
  // the order the player issued them.
  std::vector<std::size_t> response_of_;
  std::vector<std::pair<int, int>> requested_;

  StallInterval open_stall_;
  bool in_stall_ = false;
};

// Per-interval path throughput series (for Figure 1/6/11-style plots):
// (time_s, mbps) points per path plus the aggregate, over 500 ms buckets.
struct ThroughputSeries {
  std::vector<std::pair<double, double>> total;
  std::vector<std::pair<double, double>> per_path[8];
};

// Folds delivered downlink wire bytes into per-path 500 ms buckets as the
// records are emitted; finish() turns them into a ThroughputSeries.
class ThroughputBuilder final : public TraceSink {
 public:
  void on_record(const TraceRecord& r) override;
  ThroughputSeries finish() const;

 private:
  // Bytes per path id (0..7), then the aggregate, keyed by bucket index.
  std::map<std::int64_t, std::array<Bytes, 9>> buckets_;
};

}  // namespace mpdash
