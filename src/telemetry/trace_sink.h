#pragma once
// Structured event tracing: the cross-layer record stream the analysis
// tool (src/analysis) consumes, and the simulator's equivalent of the
// paper's tcpdump + player-log capture (§6).
//
// Every instrumented subsystem emits TraceRecords keyed off the event
// loop's simulated clock. Records are plain data — emitting one never
// feeds back into simulation state, so runs are bitwise identical with
// and without sinks attached.
//
// Two sink implementations ship here:
//   * RingBufferSink — bounded, allocation-free after construction;
//     always cheap enough to leave attached.
//   * JsonlSink — streams one JSON object per line to a file (the
//     `mpdash_sim --trace out.jsonl` backend).
// TraceCollector (unbounded) backs full-session capture for analysis.
// The JSONL reader (load_trace_jsonl, what mpdash_trace loads) sits beside
// the writer and parses each line with util's json_parse.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "link/packet.h"
#include "util/units.h"

namespace mpdash {

enum class TraceType : std::uint8_t {
  kPacketSend,     // packet offered to a link (enqueue)
  kPacketDeliver,  // packet crossed the link
  kPacketDrop,     // queue overflow or random loss
  kSubflowUpdate,  // cwnd/RTT change on a data-sending subflow (per ack/RTO)
  kSchedDecision,  // Algorithm-1 path enable/disable with its inputs
  kPathMask,       // decision-function mask signalled to the peer
  kPlayer,         // bridged DASH player event
  kFault,          // fault-injection event (label = fault kind, value =
                   // parameter; path_id when link-scoped)
  kHttp,           // HTTP client lifecycle (label = request/timeout/retry/
                   // response/giveup; level = attempt number)
  kSpanStart,      // causal span opened (label = span name, chunk/level/
                   // bytes describe the request, value = deadline seconds)
  kSpanEnd,        // causal span closed (label = outcome, value = elapsed
                   // seconds from span start)
};

inline constexpr int kTraceTypeCount = 11;

const char* to_string(TraceType t);

// Parses a comma-separated list of trace-type names ("packet_send,fault",
// the strings to_string() produces) into a bitmask of (1u << type).
// Returns false and leaves *mask untouched on an unknown name.
bool parse_trace_types(std::string_view spec, std::uint32_t* mask);

// A span id is a chunk-scoped causality key: every record emitted while a
// chunk request is in flight carries the id of the kSpanStart that opened
// it (0 = no span). Ids are allocated per Telemetry context, so campaign
// runs with private contexts stay deterministic under any --jobs.
using SpanId = std::uint64_t;

struct TraceRecord {
  TimePoint at = kTimeZero;
  TraceType type = TraceType::kPacketSend;
  SpanId span = 0;  // owning chunk span, stamped by Telemetry::emit
  int path_id = -1;
  int link_id = -1;  // even = downlink, odd = uplink (see NetPath)

  // --- packet events ---
  PacketKind kind = PacketKind::kData;
  Bytes wire_size = 0;
  Bytes payload_len = 0;
  std::uint64_t data_seq = 0;
  bool retransmit = false;
  // Payload content, captured on delivery only when the owning Telemetry
  // has payload capture on (needed for HTTP reconstruction in analysis).
  std::vector<SegmentRef> segments;

  // --- subflow updates ---
  double cwnd = 0.0;
  double ssthresh = 0.0;
  double srtt_ms = 0.0;

  // --- scheduler decisions (Algorithm 1 inputs at decision time) ---
  bool enabled = false;
  double budget_s = 0.0;           // alpha*D - timeSpent
  double deliverable_bytes = 0.0;  // what the kept cheaper set can move
  double remaining_bytes = 0.0;    // S - sent
  std::uint32_t mask = 0;          // kPathMask: the signalled path mask

  // --- player events / decision labels ---
  // Static-storage string (event name, decision kind); never owned.
  const char* label = nullptr;
  int level = -1;
  int chunk = -1;
  Bytes bytes = 0;
  double value = 0.0;  // buffer seconds, stall seconds, ...

  bool is_packet() const {
    return type == TraceType::kPacketSend || type == TraceType::kPacketDeliver ||
           type == TraceType::kPacketDrop;
  }
  bool is_downlink() const { return link_id >= 0 && link_id % 2 == 0; }
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_record(const TraceRecord& r) = 0;
};

// Bounded ring buffer: keeps the newest `capacity` records, overwriting
// the oldest once full.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void on_record(const TraceRecord& r) override;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }
  // Records lost to wraparound so far.
  std::uint64_t overwritten() const { return total_ - size_; }
  std::uint64_t total_seen() const { return total_; }
  // Retained records, oldest first.
  std::vector<TraceRecord> snapshot() const;
  void clear();

 private:
  std::vector<TraceRecord> buffer_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

// Unbounded in-memory capture — the full-fidelity trace the cross-layer
// analyzer consumes.
class TraceCollector final : public TraceSink {
 public:
  void on_record(const TraceRecord& r) override { records_.push_back(r); }
  const std::vector<TraceRecord>& records() const { return records_; }
  std::vector<TraceRecord> take() { return std::move(records_); }
  void clear() { records_.clear(); }

 private:
  std::vector<TraceRecord> records_;
};

// Streams the records whose type is set in `types` (bit = 1u << type, the
// `--trace-types` mask) as JSON Lines. Payload segments are summarized by
// length, never serialized.
class JsonlSink final : public TraceSink {
 public:
  // Opens `path` for writing; ok() reports failure.
  explicit JsonlSink(const std::string& path, std::uint32_t types = ~0u);
  ~JsonlSink() override;  // close()s, dropping its verdict

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void on_record(const TraceRecord& r) override;

  // Flushes and closes the file. False when it never opened or a write
  // failed, the final flush included (a full disk); records after a
  // failed write are dropped.
  bool close();

  bool ok() const { return file_ != nullptr; }
  std::uint64_t records_written() const { return written_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint32_t types_;
  bool failed_ = false;
  std::uint64_t written_ = 0;
};

// Forwards only records whose type is set in `mask` (bit = 1u << type) to
// the wrapped sink, so an in-memory capture keeps only what one analysis
// pass reads (the span model, the flame view).
class TypeFilterSink final : public TraceSink {
 public:
  TypeFilterSink(TraceSink* inner, std::uint32_t mask)
      : inner_(inner), mask_(mask) {}

  void on_record(const TraceRecord& r) override {
    if (inner_ && (mask_ & (1u << static_cast<unsigned>(r.type)))) {
      inner_->on_record(r);
    }
  }

  std::uint32_t mask() const { return mask_; }

 private:
  TraceSink* inner_;
  std::uint32_t mask_;
};

// Renders one record as a single-line JSON object (no trailing newline).
std::string trace_record_to_json(const TraceRecord& r);

// --- JSONL reader: the inverse of trace_record_to_json -------------------
// Every field the writer emits parses back to an identical TraceRecord
// (pinned by trace_roundtrip_test). One asymmetry by design: payload
// `segments` never serialize, so loaded records have none.

// Maps a label string to process-lifetime storage, one pointer per
// distinct string, so TraceRecord::label stays a borrowed pointer for
// loaded records too.
const char* intern_trace_label(std::string_view label);

// Parses one JSON object (a line of a trace file) into *out. Returns false
// and describes the problem in *err (when non-null) on malformed input:
// anything json_parse rejects, an unknown key or record type, a value of
// the wrong kind, or an integer field holding a fraction, an exponent or a
// value outside the field's type.
bool trace_record_from_json(std::string_view line, TraceRecord* out,
                            std::string* err = nullptr);

// Loads a whole JSONL trace file, skipping blank lines. On failure returns
// false with *err naming the offending `path:line`.
bool load_trace_jsonl(const std::string& path, std::vector<TraceRecord>* out,
                      std::string* err = nullptr);

}  // namespace mpdash
