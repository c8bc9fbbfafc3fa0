#pragma once
// Piecewise-constant bandwidth-over-time traces.
//
// A BandwidthTrace is the simulator's stand-in for a real radio channel:
// links draw their instantaneous capacity from it, the offline-optimal
// scheduler integrates it, and the trace generators in generators.h produce
// profiles matching the paper's synthetic and field conditions.

#include <vector>

#include "util/units.h"

namespace mpdash {

struct RatePoint {
  TimePoint start;       // segment begins here...
  DataRate rate;         // ...and holds this rate until the next point
};

class BandwidthTrace {
 public:
  BandwidthTrace() = default;
  // Points must be sorted by start time with strictly increasing starts and
  // points.front().start == 0. An empty trace has zero rate everywhere.
  explicit BandwidthTrace(std::vector<RatePoint> points);

  static BandwidthTrace constant(DataRate rate);

  // Rate in effect at time t. Past the last point the trace either holds
  // the final rate (default) or wraps around if `looped` was set.
  DataRate rate_at(TimePoint t) const;

  // Bytes deliverable over [from, to) at full utilization.
  Bytes bytes_between(TimePoint from, TimePoint to) const;

  // Earliest time >= from by which `bytes` can be delivered at full
  // utilization; Duration::max()-based sentinel (TimePoint::max()) if never.
  TimePoint time_to_deliver(TimePoint from, Bytes bytes) const;

  // When set, times are taken modulo `period` (for replaying short field
  // traces under long experiments).
  void set_loop(Duration period);
  bool looped() const { return loop_period_ > kDurationZero; }

  const std::vector<RatePoint>& points() const { return points_; }

  // Mean rate over [0, horizon).
  DataRate mean_rate(Duration horizon) const;

  // Returns a trace scaled by `factor` (useful for what-if sweeps).
  BandwidthTrace scaled(double factor) const;

 private:
  TimePoint fold(TimePoint t) const;
  // Index of segment containing folded time t.
  std::size_t segment_index(TimePoint t) const;

  std::vector<RatePoint> points_;
  Duration loop_period_ = kDurationZero;
};

}  // namespace mpdash
