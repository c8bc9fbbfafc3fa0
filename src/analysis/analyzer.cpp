#include "analysis/analyzer.h"

#include <algorithm>
#include <map>

#include "dash/events.h"

namespace mpdash {

const PathUsage* AnalysisReport::path(int id) const {
  for (const auto& p : paths) {
    if (p.path_id == id) return &p;
  }
  return nullptr;
}

namespace {

constexpr int kMaxPaths = 8;

void accumulate_path_usage(const std::vector<TraceRecord>& trace,
                           AnalysisReport& report) {
  std::map<int, PathUsage> usage;
  for (const auto& r : trace) {
    if (!r.is_packet()) continue;
    auto& u = usage[r.path_id];
    u.path_id = r.path_id;
    switch (r.type) {
      case TraceType::kPacketDeliver:
        ++u.packets;
        if (r.is_downlink()) {
          u.wire_bytes_down += r.wire_size;
          if (r.kind == PacketKind::kData) u.data_bytes_down += r.payload_len;
        } else {
          u.wire_bytes_up += r.wire_size;
        }
        break;
      case TraceType::kPacketDrop:
        ++u.drops;
        break;
      default:  // kPacketSend
        if (r.retransmit && r.is_downlink()) ++u.retransmissions;
        break;
    }
  }
  for (auto& [id, u] : usage) report.paths.push_back(u);
}

// Reconstructs HTTP responses from the delivered downlink data stream.
void reconstruct_chunks(const std::vector<TraceRecord>& trace,
                        AnalysisReport& report) {
  // Unique delivered downlink data packets in data-sequence order, and the
  // requested (level, chunk) pairs in the order the player issued them.
  std::map<std::uint64_t, const TraceRecord*> stream;
  std::vector<std::pair<int, int>> requested;
  for (const auto& r : trace) {
    if (is_player_event(r, PlayerEventType::kChunkRequest)) {
      requested.emplace_back(r.level, r.chunk);
    }
    if (r.type != TraceType::kPacketDeliver || !r.is_downlink() ||
        r.kind != PacketKind::kData || r.payload_len == 0) {
      continue;
    }
    stream.emplace(r.data_seq, &r);  // first delivery wins (dup = retx)
  }
  std::size_t next_request = 0;

  ChunkDelivery current;
  bool is_media = false;
  const TraceRecord* feeding = nullptr;
  bool started = false;

  HttpStreamParser parser(
      HttpStreamParser::Mode::kResponses,
      HttpStreamParser::Callbacks{
          .on_request = nullptr,
          .on_response_head =
              [&](const HttpResponse& head) {
                current = ChunkDelivery{};
                current.index = static_cast<int>(report.chunks.size());
                started = false;
                const auto type = head.header("Content-Type");
                is_media = type && *type == "video/iso.segment";
                if (is_media && next_request < requested.size()) {
                  current.level = requested[next_request].first;
                  current.chunk = requested[next_request].second;
                  ++next_request;
                }
              },
          .on_body =
              [&](Bytes count, const std::string&) {
                current.total_bytes += count;
                if (feeding && feeding->path_id >= 0 &&
                    feeding->path_id < kMaxPaths) {
                  current.bytes_per_path[feeding->path_id] += count;
                }
                if (feeding) {
                  if (!started) {
                    current.start = feeding->at;
                    started = true;
                  }
                  current.end = feeding->at;
                }
              },
          .on_message_complete =
              [&] {
                if (is_media) report.chunks.push_back(current);
              },
          .on_error = nullptr});

  for (const auto& [seq, rec] : stream) {
    feeding = rec;
    parser.consume(rec->segments);
  }
  feeding = nullptr;
}

void collect_player_stats(const std::vector<TraceRecord>& trace,
                          AnalysisReport& report) {
  StallInterval open{};
  bool in_stall = false;
  for (const auto& r : trace) {
    report.session_length = std::max(report.session_length, Duration(r.at));
    if (is_player_event(r, PlayerEventType::kStallStart)) {
      open.start = r.at;
      in_stall = true;
    } else if (in_stall && is_player_event(r, PlayerEventType::kStallEnd)) {
      open.end = r.at;
      report.stalls.push_back(open);
      in_stall = false;
    } else if (is_player_event(r, PlayerEventType::kQualitySwitch)) {
      ++report.quality_switches;
    }
  }
}

}  // namespace

AnalysisReport analyze(const std::vector<TraceRecord>& trace,
                       const AnalyzerConfig& config) {
  AnalysisReport report;
  accumulate_path_usage(trace, report);
  reconstruct_chunks(trace, report);
  collect_player_stats(trace, report);

  // Radio energy from the packet trace (delivered wire bytes, as seen at
  // the client's radios).
  std::vector<ByteEvent> wifi_ev, lte_ev;
  for (const auto& r : trace) {
    if (r.type != TraceType::kPacketDeliver) continue;
    ByteEvent ev{r.at, r.wire_size, r.is_downlink()};
    if (r.path_id == config.wifi_path_id) {
      wifi_ev.push_back(ev);
    } else if (r.path_id == config.cellular_path_id) {
      lte_ev.push_back(ev);
    }
  }
  report.energy = price_session(config.device, wifi_ev, lte_ev,
                                report.session_length);
  return report;
}

ThroughputSeries throughput_series(const std::vector<TraceRecord>& trace,
                                   Duration interval) {
  ThroughputSeries out;
  std::map<std::int64_t, std::array<Bytes, kMaxPaths + 1>> buckets;
  for (const auto& r : trace) {
    if (r.type != TraceType::kPacketDeliver || !r.is_downlink()) continue;
    auto& b = buckets[r.at.count() / interval.count()];
    if (r.path_id >= 0 && r.path_id < kMaxPaths) {
      b[static_cast<std::size_t>(r.path_id)] += r.wire_size;
    }
    b[kMaxPaths] += r.wire_size;
  }
  const double dt = to_seconds(interval);
  for (const auto& [idx, bytes] : buckets) {
    const double t = static_cast<double>(idx) * dt;
    for (int p = 0; p < kMaxPaths; ++p) {
      if (bytes[static_cast<std::size_t>(p)] > 0) {
        out.per_path[p].emplace_back(
            t, static_cast<double>(bytes[static_cast<std::size_t>(p)]) * 8.0 /
                   dt / 1e6);
      }
    }
    out.total.emplace_back(
        t, static_cast<double>(bytes[kMaxPaths]) * 8.0 / dt / 1e6);
  }
  return out;
}

}  // namespace mpdash
