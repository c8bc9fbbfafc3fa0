#include "telemetry/trace_sink.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "util/enum_string.h"
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
    TraceType type;
    if (!enum_from_string<TraceType::kSpanEnd>(name, &type)) return false;
    out |= 1u << static_cast<unsigned>(type);
  }
  *mask = out;
  return true;
}

// Doubles go through json_double, whose shortest round-trip form lets
// read_trace_jsonl recover every value bit-for-bit.
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

JsonlSink::JsonlSink(const std::string& path, std::uint32_t types)
    : file_(std::fopen(path.c_str(), "w")), types_(types) {}

JsonlSink::~JsonlSink() { close(); }

void JsonlSink::on_record(const TraceRecord& r) {
  if (file_ == nullptr || failed_ ||
      (types_ & (1u << static_cast<unsigned>(r.type))) == 0) {
    return;
  }
  std::string line = trace_record_to_json(r);
  line += '\n';
  failed_ = std::fwrite(line.data(), 1, line.size(), file_) != line.size();
  if (!failed_) ++written_;
}

bool JsonlSink::close() {
  if (file_ == nullptr) return false;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  return closed && !failed_;
}

const char* intern_trace_label(std::string_view label) {
  // A leaked pool: unordered_set never moves its nodes, so every c_str
  // stays valid for the process lifetime.
  static std::mutex mu;
  static auto* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return pool->emplace(label).first->c_str();
}

namespace {

bool record_from_json(const JsonValue& doc, TraceRecord* out,
                      std::string* err) {
  auto fail = [err](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  if (!doc.is_object()) return fail("record is not a JSON object");
  TraceRecord r;
  const std::string* type_name = nullptr;
  const std::string* kind = nullptr;
  const std::string* phase = nullptr;
  const std::string* label = nullptr;
  bool retx = false;
  for (const auto& [key, v] : doc.members) {
    if (v.is_string()) {
      if (key == "type") {
        type_name = &v.str;
      } else if (key == "kind") {
        kind = &v.str;
      } else if (key == "phase") {
        phase = &v.str;
      } else if (key == "decision" || key == "event" || key == "fault" ||
                 key == "name" || key == "status") {
        label = &v.str;
      } else if (key != "dir") {  // dir is derived from the link id
        return fail("unknown string key '" + key + "'");
      }
      continue;
    }
    if (v.is_bool()) {
      if (key == "retx") {
        retx = v.boolean;
      } else if (key == "enabled") {
        r.enabled = v.boolean;
      } else {
        return fail("unknown boolean key '" + key + "'");
      }
      continue;
    }
    if (!v.is_number()) {
      return fail("key '" + key + "' holds no string, number or boolean");
    }
    bool ok = true;
    if (key == "t") {
      // to_seconds() divides the integer nanosecond count by 1e9; with
      // shortest-round-trip doubles the rescale is exact for any
      // session-scale time, so llround restores the count bit-for-bit.
      double t = 0.0;
      ok = json_get(v, &t) && std::fabs(t * 1e9) < 9e18;
      if (ok) r.at = TimePoint(Duration(std::llround(t * 1e9)));
    } else if (key == "span") {
      ok = json_get(v, &r.span);
    } else if (key == "path") {
      ok = json_get(v, &r.path_id);
    } else if (key == "link") {
      ok = json_get(v, &r.link_id);
    } else if (key == "wire") {
      ok = json_get(v, &r.wire_size);
    } else if (key == "payload") {
      ok = json_get(v, &r.payload_len);
    } else if (key == "seq") {
      ok = json_get(v, &r.data_seq);
    } else if (key == "mask") {
      ok = json_get(v, &r.mask);
    } else if (key == "level" || key == "attempt") {
      ok = json_get(v, &r.level);
    } else if (key == "chunk") {
      ok = json_get(v, &r.chunk);
    } else if (key == "bytes") {
      ok = json_get(v, &r.bytes);
    } else if (key == "cwnd") {
      ok = json_get(v, &r.cwnd);
    } else if (key == "ssthresh") {
      ok = json_get(v, &r.ssthresh);
    } else if (key == "srtt_ms") {
      ok = json_get(v, &r.srtt_ms);
    } else if (key == "budget_s") {
      ok = json_get(v, &r.budget_s);
    } else if (key == "deliverable") {
      ok = json_get(v, &r.deliverable_bytes);
    } else if (key == "remaining") {
      ok = json_get(v, &r.remaining_bytes);
    } else if (key == "value" || key == "deadline_s" || key == "elapsed_s") {
      ok = json_get(v, &r.value);
    } else {
      return fail("unknown numeric key '" + key + "'");
    }
    if (!ok) return fail("bad '" + key + "' value " + v.number);
  }

  if (type_name == nullptr) return fail("record has no type");
  if (!enum_from_string<TraceType::kSpanEnd>(*type_name, &r.type)) {
    return fail("unknown record type '" + *type_name + "'");
  }
  if (r.is_packet()) {
    r.kind = kind != nullptr && *kind == "ack" ? PacketKind::kAck
                                               : PacketKind::kData;
    r.retransmit = retx;
  }
  if (r.type == TraceType::kFault && phase != nullptr) {
    r.enabled = *phase == "start";
  }
  if (label != nullptr && !label->empty()) {
    r.label = intern_trace_label(*label);
  }
  *out = std::move(r);
  return true;
}

}  // namespace

bool trace_record_from_json(std::string_view line, TraceRecord* out,
                            std::string* err) {
  JsonValue doc;
  return json_parse(line, &doc, err) && record_from_json(doc, out, err);
}

namespace {

// Feeds the JSONL records of the open file `f` to `sink`. The file is read
// in fixed-size chunks, and a line cut at a chunk's end carries over to
// the next, so memory stays bounded by the longest line, not the file.
bool feed_trace_jsonl(std::FILE* f, const std::string& path,
                      TraceSink& sink, std::string* err) {
  JsonValue doc;  // one value for the whole file, reset in place per line
  std::size_t line_no = 0;
  auto feed = [&](std::string_view line) {
    ++line_no;
    if (line.empty()) return true;
    TraceRecord r;
    std::string line_err;
    if (!json_parse(line, &doc, &line_err) ||
        !record_from_json(doc, &r, &line_err)) {
      if (err) *err = path + ":" + std::to_string(line_no) + ": " + line_err;
      return false;
    }
    sink.on_record(r);
    return true;
  };
  std::string line;  // the line being read; a chunk's end may cut it
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    std::string_view chunk(buf, n);
    for (std::size_t nl; (nl = chunk.find('\n')) != std::string_view::npos;
         chunk.remove_prefix(nl + 1)) {
      line.append(chunk.data(), nl);
      if (!feed(line)) return false;
      line.clear();
    }
    line.append(chunk);
  }
  if (std::ferror(f) != 0) {
    if (err) *err = "cannot read " + path;
    return false;
  }
  return line.empty() || feed(line);  // a last line without '\n'
}

}  // namespace

bool read_trace_jsonl(const std::string& path, TraceSink& sink,
                      std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  const bool ok = feed_trace_jsonl(f, path, sink, err);
  std::fclose(f);
  return ok;
}

}  // namespace mpdash
