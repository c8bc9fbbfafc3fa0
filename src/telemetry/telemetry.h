#pragma once
// The telemetry context: one MetricsRegistry plus a fan-out list of trace
// sinks, shared by every instrumented subsystem of a run.
//
// Components hold a `Telemetry*` that defaults to nullptr; every
// instrumentation site guards on it (and on `tracing()` for record
// emission), so the disabled fast path costs a single predictable branch
// and simulation results are bitwise identical either way.

#include <algorithm>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace_sink.h"

namespace mpdash {

class Telemetry {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Sinks are borrowed and must outlive the context (or be removed).
  void add_sink(TraceSink* sink);
  void remove_sink(TraceSink* sink);

  bool tracing() const { return !sinks_.empty(); }

  // Span bookkeeping: the player opens one span per chunk request and
  // pushes it onto a stack of concurrently-open spans; emit() stamps the
  // top of the stack onto every record that does not already carry one.
  // A pipelined player keeps several spans open at once (one per in-flight
  // chunk), pushing each on issue and popping it — possibly out of stack
  // order under faults — when the chunk completes or is abandoned. Pure
  // bookkeeping — allocation and stamping never feed back into simulation
  // state, so runs stay bitwise identical with spans on or off.
  SpanId open_span() { return next_span_id_++; }
  void push_span(SpanId id) {
    if (id != 0) span_stack_.push_back(id);
  }
  // Removes that specific id (chunks can finish out of issue order when
  // retries reshuffle them), not blindly the top.
  void pop_span(SpanId id) {
    const auto it =
        std::find(span_stack_.rbegin(), span_stack_.rend(), id);
    if (it != span_stack_.rend()) span_stack_.erase(std::next(it).base());
  }
  SpanId active_span() const {
    return span_stack_.empty() ? 0 : span_stack_.back();
  }

  void emit(TraceRecord& r) {
    if (r.span == 0) r.span = active_span();
    for (TraceSink* s : sinks_) s->on_record(r);
  }
  void emit(TraceRecord&& r) { emit(r); }

  // For trace-global records (fault windows) that must never inherit an
  // ambient span: whatever r.span says is what the sinks see.
  void emit_unspanned(TraceRecord& r) {
    for (TraceSink* s : sinks_) s->on_record(r);
  }
  void emit_unspanned(TraceRecord&& r) { emit_unspanned(r); }

 private:
  MetricsRegistry metrics_;
  std::vector<TraceSink*> sinks_;
  SpanId next_span_id_ = 1;
  std::vector<SpanId> span_stack_;
};

}  // namespace mpdash
