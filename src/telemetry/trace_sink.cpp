#include "telemetry/trace_sink.h"

#include <cstdio>
#include <cstring>

#include "util/json.h"

namespace mpdash {

const char* to_string(TraceType t) {
  switch (t) {
    case TraceType::kPacketSend: return "packet_send";
    case TraceType::kPacketDeliver: return "packet_deliver";
    case TraceType::kPacketDrop: return "packet_drop";
    case TraceType::kSubflowUpdate: return "subflow_update";
    case TraceType::kSchedDecision: return "sched_decision";
    case TraceType::kPathMask: return "path_mask";
    case TraceType::kPlayer: return "player";
    case TraceType::kFault: return "fault";
    case TraceType::kHttp: return "http";
    case TraceType::kSpanStart: return "span_start";
    case TraceType::kSpanEnd: return "span_end";
  }
  return "unknown";
}

bool parse_trace_types(std::string_view spec, std::uint32_t* mask) {
  std::uint32_t out = 0;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view name = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view()
                                           : spec.substr(comma + 1);
    while (!name.empty() && name.front() == ' ') name.remove_prefix(1);
    while (!name.empty() && name.back() == ' ') name.remove_suffix(1);
    if (name.empty()) continue;
    bool found = false;
    for (int i = 0; i < kTraceTypeCount; ++i) {
      if (name == to_string(static_cast<TraceType>(i))) {
        out |= 1u << static_cast<unsigned>(i);
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  *mask = out;
  return true;
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : buffer_(capacity == 0 ? 1 : capacity) {}

void RingBufferSink::on_record(const TraceRecord& r) {
  buffer_[head_] = r;
  head_ = (head_ + 1) % buffer_.size();
  if (size_ < buffer_.size()) ++size_;
  ++total_;
}

std::vector<TraceRecord> RingBufferSink::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(size_);
  // Oldest record sits at head_ once the buffer has wrapped.
  const std::size_t start =
      size_ == buffer_.size() ? head_ : (head_ + buffer_.size() - size_) %
                                            buffer_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  }
  return out;
}

void RingBufferSink::clear() {
  head_ = 0;
  size_ = 0;
  total_ = 0;
}

// Doubles go through json_double, whose shortest round-trip form lets the
// JSONL loader (src/analysis/trace_load) recover every value bit-for-bit.
std::string trace_record_to_json(const TraceRecord& r) {
  std::string out = "{\"t\":" + json_double(to_seconds(r.at)) + ",\"type\":\"";
  out += to_string(r.type);
  out += '"';
  auto num = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += json_double(v);
  };
  auto integer = [&out](const char* key, std::int64_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  if (r.span != 0) integer("span", static_cast<std::int64_t>(r.span));
  if (r.path_id >= 0) integer("path", r.path_id);
  switch (r.type) {
    case TraceType::kPacketSend:
    case TraceType::kPacketDeliver:
    case TraceType::kPacketDrop:
      integer("link", r.link_id);
      out += ",\"dir\":\"";
      out += r.is_downlink() ? "down" : "up";
      out += "\",\"kind\":\"";
      out += r.kind == PacketKind::kData ? "data" : "ack";
      out += '"';
      integer("wire", r.wire_size);
      if (r.kind == PacketKind::kData) {
        integer("payload", r.payload_len);
        integer("seq", static_cast<std::int64_t>(r.data_seq));
        if (r.retransmit) out += ",\"retx\":true";
      }
      break;
    case TraceType::kSubflowUpdate:
      num("cwnd", r.cwnd);
      num("ssthresh", r.ssthresh);
      num("srtt_ms", r.srtt_ms);
      break;
    case TraceType::kSchedDecision:
      if (r.label) {
        out += ",\"decision\":" + json_quote(r.label);
      }
      out += ",\"enabled\":";
      out += r.enabled ? "true" : "false";
      num("budget_s", r.budget_s);
      num("deliverable", r.deliverable_bytes);
      num("remaining", r.remaining_bytes);
      break;
    case TraceType::kPathMask:
      integer("mask", r.mask);
      break;
    case TraceType::kPlayer:
      if (r.label) {
        out += ",\"event\":" + json_quote(r.label);
      }
      if (r.level >= 0) integer("level", r.level);
      if (r.chunk >= 0) integer("chunk", r.chunk);
      if (r.bytes > 0) integer("bytes", r.bytes);
      num("value", r.value);
      break;
    case TraceType::kFault:
      if (r.label) {
        out += ",\"fault\":" + json_quote(r.label);
      }
      out += ",\"phase\":\"";
      out += r.enabled ? "start" : "end";
      out += '"';
      num("value", r.value);
      break;
    case TraceType::kHttp:
      if (r.label) {
        out += ",\"event\":" + json_quote(r.label);
      }
      if (r.level >= 0) integer("attempt", r.level);
      num("value", r.value);
      break;
    case TraceType::kSpanStart:
      if (r.label) {
        out += ",\"name\":" + json_quote(r.label);
      }
      if (r.level >= 0) integer("level", r.level);
      if (r.chunk >= 0) integer("chunk", r.chunk);
      if (r.bytes > 0) integer("bytes", r.bytes);
      num("deadline_s", r.value);
      break;
    case TraceType::kSpanEnd:
      if (r.label) {
        out += ",\"status\":" + json_quote(r.label);
      }
      if (r.level >= 0) integer("level", r.level);
      if (r.chunk >= 0) integer("chunk", r.chunk);
      if (r.bytes > 0) integer("bytes", r.bytes);
      num("elapsed_s", r.value);
      break;
  }
  out += '}';
  return out;
}

JsonlSink::JsonlSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

JsonlSink::~JsonlSink() {
  if (file_) std::fclose(file_);
}

void JsonlSink::on_record(const TraceRecord& r) {
  if (!file_) return;
  const std::string line = trace_record_to_json(r);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++written_;
}

}  // namespace mpdash
