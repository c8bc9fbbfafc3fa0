#pragma once
// MetricsSnapshotter: samples a Telemetry registry on a fixed sim-time
// cadence into a MetricsTimeline, turning end-of-run scalars into
// per-run time series (QoE, byte share, window state over time).
//
// The snapshotter schedules events of its own, so timeline runs are not
// event-count-identical to bare runs — but sampling only *reads* the
// registry, so with a fixed cadence the simulated behavior (and any
// concurrently captured trace) is bitwise identical across --jobs.

#include "sim/event_loop.h"
#include "telemetry/telemetry.h"

namespace mpdash {

class MetricsSnapshotter {
 public:
  // Samples `telemetry`'s registry into `out` every `interval` (first
  // sample one interval after construction) until `done` flips true.
  // All references are borrowed and must outlive the snapshotter.
  MetricsSnapshotter(EventLoop& loop, Telemetry& telemetry,
                     MetricsTimeline& out, Duration interval,
                     const bool& done)
      : loop_(loop),
        telemetry_(telemetry),
        out_(out),
        interval_(interval),
        done_(done) {
    arm();
  }
  // The pending sample's callback holds `this`.
  ~MetricsSnapshotter() { loop_.cancel(pending_); }
  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

 private:
  void arm() {
    pending_ = loop_.schedule_in(interval_, [this] {
      out_.record(telemetry_.metrics(), loop_.now());
      if (!done_) arm();
    });
  }

  EventLoop& loop_;
  Telemetry& telemetry_;
  MetricsTimeline& out_;
  Duration interval_;
  const bool& done_;
  EventId pending_;
};

}  // namespace mpdash
