#pragma once
// Span model: reconstructs per-chunk causal timelines from a TraceRecord
// stream and runs the deadline-miss attribution pass — the "why did chunk
// 42 stall" layer the paper had to hand-correlate from tcpdump + player
// logs (§6). SpanModelBuilder is the one fold: a TraceSink that takes each
// record as a run emits it or as read_trace_jsonl reads it back, so no
// consumer holds a run's records to fold them afterwards.
//
// Every record between a chunk's kSpanStart and kSpanEnd carries the
// span's id (Telemetry stamps the active span), so a span's causal
// window is exactly the records that share its id, joined against the
// trace-global fault windows.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/trace_sink.h"

namespace mpdash {

// Root cause assigned to a missed deadline / abandoned chunk / stall.
// Precedence (checked in order) favors external causes over scheduler
// blame: an injected fault explains a miss even when the scheduler also
// reacted late to it.
enum class MissCause : std::uint8_t {
  kNone = 0,             // span met its deadline
  kFaultBlackout,        // a scripted path/server fault overlapped the span
  kRetryBackoff,         // HTTP timeout/retry backoff ate the budget
  kSchedulerLate,        // Algorithm 1 never (or too late) enabled help
  kBandwidthShortfall,   // all enabled paths were simply too slow
  kUnknown,              // missed, but no signal matched (foreign trace)
};

const char* to_string(MissCause c);

// The documented cause precedence, in order: every consumer that walks
// "all causes" (attribution_counts, the roll-up CSV columns, the table
// renderers) iterates this array so output ordering never depends on a
// container's iteration order.
inline constexpr MissCause kMissCausePrecedence[] = {
    MissCause::kFaultBlackout,    MissCause::kRetryBackoff,
    MissCause::kSchedulerLate,    MissCause::kBandwidthShortfall,
    MissCause::kUnknown,
};

// Tie-break rank for fault *kinds* when two fault windows cover a span
// for exactly the same number of seconds: link-scoped outages indict the
// network before origin misbehavior does, mirroring the cause precedence
// above. Lower rank wins; unknown kinds rank last and tie-break
// lexicographically. Documented order:
//   blackout ≻ flap ≻ rate_collapse ≻ loss_burst ≻ rtt_spike ≻
//   server_stall ≻ server_reset ≻ (anything else, by name)
int fault_kind_rank(const char* kind);

// One injected fault occurrence (kFault start/end pair). An unclosed
// window extends to the end of the trace.
struct FaultWindow {
  const char* kind = nullptr;  // interned fault label ("blackout", ...)
  int path_id = -1;            // -1 for server-scoped faults
  TimePoint start = kTimeZero;
  TimePoint end = kTimeZero;
  bool closed = false;

  // Server faults stall/reset the HTTP origin rather than a link.
  bool server_scoped() const { return path_id < 0; }
};

// One HTTP attempt inside a span, from its "request" record to the
// record that closed it.
struct HttpAttempt {
  int attempt = 0;                // attempt number as emitted (kHttp level)
  TimePoint start = kTimeZero;    // "request" record
  TimePoint end = kTimeZero;      // closing record (or span end if open)
  const char* outcome = nullptr;  // "response"/"timeout"/"giveup"; null =
                                  // still in flight at trace end
};

using ActivityInterval = std::pair<TimePoint, TimePoint>;

// One kSubflowUpdate observation (server data sender: cwnd/RTT at an
// ack or RTO edge).
struct SubflowSample {
  TimePoint at = kTimeZero;
  double cwnd = 0.0;
  double srtt_ms = 0.0;
};

// Reconstructed life of one causal span (one chunk request, or the
// manifest fetch).
struct ChunkTimeline {
  SpanId span = 0;
  const char* name = nullptr;    // "chunk" or "manifest"
  int chunk = -1;
  int level = -1;                // level at request (retries may downshift)
  Bytes requested_bytes = 0;
  double deadline_s = 0.0;       // 0 = no deadline set (non-MP-DASH run)
  TimePoint start = kTimeZero;
  TimePoint end = kTimeZero;     // trace end when unclosed
  const char* status = nullptr;  // "delivered"/"abandoned"/"failed"; null =
                                 // trace ended mid-flight
  Bytes delivered_bytes = 0;

  // Milestones (valid when the matching flag/count is set).
  bool sched_engaged = false;     // Algorithm 1 saw this chunk ("begin")
  bool sched_missed = false;      // scheduler declared the deadline missed
  bool costly_enabled = false;    // a non-preferred path was enabled
                                  // (derived by attribute_misses)
  TimePoint sched_begin = kTimeZero;
  TimePoint first_costly_enable = kTimeZero;
  std::map<int, TimePoint> first_enable_by_path;  // "enable" decisions
  TimePoint first_byte = kTimeZero;  // first downlink data delivery
  TimePoint last_byte = kTimeZero;
  bool have_bytes = false;

  // Per-path downlink payload delivered inside the span.
  std::map<int, Bytes> bytes_by_path;
  // The same deliveries as intervals per path: deliveries at most 50 ms
  // apart fuse into one (the flame view draws shapes, not packets).
  std::map<int, std::vector<ActivityInterval>> path_activity;

  std::vector<HttpAttempt> attempts;  // request order; gaps = backoff
  int http_timeouts = 0;
  int http_retries = 0;
  double backoff_s = 0.0;   // total scheduled retry backoff
  int chunk_retries = 0;    // player-level downshift retries
  int stalls_started = 0;   // playback stalled while this span in flight

  // Overlap-aware accounting (post-pass in SpanModelBuilder::finish). A
  // pipelined player keeps several spans open at once, so one fault window
  // can overlap them all; these fields total the wall time each fault
  // scope covered this span (union, so stacked windows don't double count)
  // and apportion intervals shared between concurrently open spans, making
  // per-span waterfalls sum to the trace-level blackout time instead of
  // multiply counting it.
  double path_fault_overlap_s = 0.0;    // link-fault windows ∩ this span
  double server_fault_overlap_s = 0.0;  // server-fault windows ∩ this span
  double fault_overlap_share_s = 0.0;   // overlap ÷ concurrently open spans
  int max_concurrent_spans = 1;         // peak open spans while in flight

  // Union overlap seconds per fault kind, sorted by fault_kind_rank()
  // then name (never by pointer value, which would make equal-share
  // ties depend on allocation order). Only kinds with coverage > 0.
  std::vector<std::pair<const char*, double>> fault_overlap_by_kind;
  // The kind with the largest overlap; equal shares resolve to the
  // higher-precedence kind. nullptr when no fault touched the span.
  const char* dominant_fault_kind = nullptr;

  MissCause cause = MissCause::kNone;

  double elapsed_s() const { return to_seconds(end - start); }
  bool closed() const { return status != nullptr; }
  // A span counts as a miss when the scheduler said so, when the player
  // abandoned it, or when a set deadline elapsed before delivery.
  bool missed() const;
};

struct SpanModel {
  std::vector<ChunkTimeline> spans;  // span-id order (allocation order)
  std::vector<FaultWindow> faults;
  TimePoint trace_end = kTimeZero;
  std::size_t records = 0;
  std::size_t unspanned_records = 0;  // records outside any span
  std::array<std::size_t, kTraceTypeCount> records_by_type{};  // by TraceType
  int preferred_path = 0;  // attribute_misses' argument; renderers split by it
  // Subflow cwnd/RTT samples per path, in time order. Subflow updates are
  // connection-scoped (not stamped with a chunk span), so a span's rows
  // are the samples with start <= at <= end.
  std::map<int, std::vector<SubflowSample>> subflow;

  const ChunkTimeline* find(SpanId id) const;
};

// TypeFilterSink mask of every record type attribution reads (all the span
// model reads but kSubflowUpdate, which only the flame view's subflow rows
// use): a builder behind it attributes as one fed the whole JSONL trace.
std::uint32_t span_model_trace_mask();

// Folds records into a SpanModel as they arrive: groups them by span id,
// collects fault windows and subflow samples, fills every ChunkTimeline
// milestone and flame row. Does not assign causes.
class SpanModelBuilder final : public TraceSink {
 public:
  void on_record(const TraceRecord& r) override;

  // Ends what the trace left open at its last record (spans, HTTP
  // attempts, fault windows), runs the overlap post-pass and hands over
  // the model. Call once, after the last record.
  SpanModel finish();

 private:
  SpanModel model_;
  // Span ids are allocated in increasing order, so a map keyed by id
  // yields timelines in request order.
  std::map<SpanId, ChunkTimeline> open_;
};

// Feeds `trace` to a SpanModelBuilder and finishes it.
SpanModel build_span_model(const std::vector<TraceRecord>& trace);

// Attribution pass: assigns a MissCause to every missed span by walking
// its causal window against the fault table. `preferred_path` is the
// path Algorithm 1 keeps always-on (WiFi = 0 everywhere in this repo),
// kept as model->preferred_path; other paths are the "costly" set whose
// late enablement indicts the scheduler.
void attribute_misses(SpanModel* model, int preferred_path = 0);

// Misses per cause across the model (kNone excluded; zero counts kept).
// Rows come back in kMissCausePrecedence order — the documented, stable
// ordering every renderer and CSV column list shares.
std::vector<std::pair<MissCause, int>> attribution_counts(
    const SpanModel& model);

// Count for one cause in an attribution_counts() result (0 if absent).
int count_for(const std::vector<std::pair<MissCause, int>>& counts,
              MissCause cause);

}  // namespace mpdash
