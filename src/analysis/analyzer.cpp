#include "analysis/analyzer.h"

#include <algorithm>
#include <tuple>

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
constexpr Duration kThroughputInterval = milliseconds(500);
// The scenario's path ids (exp/scenario.h).
constexpr int kWifiPath = 0;
constexpr int kCellularPath = 1;

}  // namespace

AnalysisBuilder::AnalysisBuilder()
    : parser_(
          HttpStreamParser::Mode::kResponses,
          HttpStreamParser::Callbacks{
              .on_request = nullptr,
              .on_response_head =
                  [this](const HttpResponse& head) {
                    current_ = ChunkDelivery{};
                    current_.index = static_cast<int>(report_.chunks.size());
                    const auto type = head.header("Content-Type");
                    is_media_ = type && *type == "video/iso.segment";
                    if (is_media_) ++media_heads_;
                  },
              .on_body =
                  [this](Bytes count, const std::string&) {
                    // The parser never reports an empty body run.
                    if (current_.total_bytes == 0) current_.start = feeding_->at;
                    current_.end = feeding_->at;
                    current_.total_bytes += count;
                    const int path = feeding_->path_id;
                    if (path >= 0 && path < kMaxPaths) {
                      current_.bytes_per_path[path] += count;
                    }
                  },
              .on_message_complete =
                  [this] {
                    if (!is_media_) return;
                    report_.chunks.push_back(current_);
                    response_of_.push_back(media_heads_ - 1);
                  },
              .on_error = nullptr}) {}

void AnalysisBuilder::on_record(const TraceRecord& r) {
  report_.session_length = std::max(report_.session_length, Duration(r.at));
  if (r.type == TraceType::kPlayer) {
    on_player(r);
    return;
  }
  if (!r.is_packet()) return;
  PathUsage& u = usage_[r.path_id];
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
      return;
    default:  // kPacketSend
      if (r.retransmit && r.is_downlink()) ++u.retransmissions;
      return;
  }
  // Radio energy comes from delivered wire bytes, as seen at the client's
  // radios.
  const ByteEvent ev{r.at, r.wire_size, r.is_downlink()};
  if (r.path_id == kWifiPath) {
    wifi_events_.push_back(ev);
  } else if (r.path_id == kCellularPath) {
    lte_events_.push_back(ev);
  }
  if (r.is_downlink() && r.kind == PacketKind::kData && r.payload_len > 0) {
    on_downlink_data(r);
  }
}

void AnalysisBuilder::on_downlink_data(const TraceRecord& r) {
  if (r.data_seq != next_seq_) {
    // Below the next byte it is a duplicate of parsed bytes; past a hole
    // it waits, unless an earlier delivery of its data_seq already does.
    if (r.data_seq < next_seq_) return;
    const auto [it, added] = waiting_.try_emplace(r.data_seq);
    if (added) {
      Waiting& w = it->second;
      if (r.payload) w.payload = *r.payload;
      w.record = r;
      w.record.payload = &w.payload;
    }
    return;
  }
  parse(r);
  // The record may have filled a hole: parse what waited behind it.
  while (!waiting_.empty() && waiting_.begin()->first <= next_seq_) {
    const auto node = waiting_.extract(waiting_.begin());
    if (node.key() == next_seq_) parse(node.mapped().record);
  }
}

void AnalysisBuilder::parse(const TraceRecord& r) {
  feeding_ = &r;
  if (r.payload) parser_.consume(*r.payload);
  feeding_ = nullptr;
  next_seq_ = r.data_seq + static_cast<std::uint64_t>(r.payload_len);
}

void AnalysisBuilder::on_player(const TraceRecord& r) {
  if (is_player_event(r, PlayerEventType::kChunkRequest)) {
    requested_.emplace_back(r.level, r.chunk);
  } else if (is_player_event(r, PlayerEventType::kStallStart)) {
    open_stall_.start = r.at;
    in_stall_ = true;
  } else if (in_stall_ && is_player_event(r, PlayerEventType::kStallEnd)) {
    open_stall_.end = r.at;
    report_.stalls.push_back(open_stall_);
    in_stall_ = false;
  } else if (is_player_event(r, PlayerEventType::kQualitySwitch)) {
    ++report_.quality_switches;
  }
}

AnalysisReport AnalysisBuilder::finish() {
  // Bytes past a hole that never filled still parse, in data_seq order.
  for (const auto& [seq, w] : waiting_) parse(w.record);
  waiting_.clear();
  for (std::size_t i = 0; i < report_.chunks.size(); ++i) {
    if (response_of_[i] < requested_.size()) {
      std::tie(report_.chunks[i].level, report_.chunks[i].chunk) =
          requested_[response_of_[i]];
    }
  }
  for (const auto& [id, u] : usage_) report_.paths.push_back(u);
  report_.energy = price_session(galaxy_note(), wifi_events_, lte_events_,
                                 report_.session_length);
  return std::move(report_);
}

void ThroughputBuilder::on_record(const TraceRecord& r) {
  if (r.type != TraceType::kPacketDeliver || !r.is_downlink()) return;
  auto& b = buckets_[r.at.count() / kThroughputInterval.count()];
  if (r.path_id >= 0 && r.path_id < kMaxPaths) {
    b[static_cast<std::size_t>(r.path_id)] += r.wire_size;
  }
  b[kMaxPaths] += r.wire_size;
}

ThroughputSeries ThroughputBuilder::finish() const {
  ThroughputSeries out;
  const double dt = to_seconds(kThroughputInterval);
  for (const auto& [idx, bytes] : buckets_) {
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
