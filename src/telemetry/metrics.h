#pragma once
// Metrics half of the telemetry layer: a registry of named counters,
// gauges, and fixed-bucket histograms that every subsystem publishes into.
//
// Handles returned by the registry are stable for its lifetime, so
// instrumented hot paths pay one pointer write per update — the name
// lookup happens once, at registration. Snapshots can be taken at any
// simulated time and exported to CSV (long format, one metric per row)
// or JSON.
//
// Naming scheme (see DESIGN.md "Observability"): dot-separated,
// subsystem-first, instance ids inline — e.g. `mptcp.subflow.1.cwnd`,
// `link.wifi.down.queue_bytes`, `sched.activations`, `player.buffer_s`.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace mpdash {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k);

namespace detail {

// One registered metric. Counters and gauges use `value`; histograms use
// the bucket arrays (bucket_counts has bounds.size() + 1 entries, the last
// being the overflow bucket).
struct MetricSlot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

}  // namespace detail

// Monotonically increasing total. add() with a negative delta is invalid
// and ignored.
class Counter {
 public:
  Counter() = default;
  void add(double delta) {
    if (slot_ && delta > 0.0) slot_->value += delta;
  }
  void increment() { add(1.0); }
  double value() const { return slot_ ? slot_->value : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::MetricSlot* slot) : slot_(slot) {}
  detail::MetricSlot* slot_ = nullptr;
};

// Last-written-wins sample of a current level (queue depth, cwnd, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (slot_) slot_->value = v;
  }
  double value() const { return slot_ ? slot_->value : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::MetricSlot* slot) : slot_(slot) {}
  detail::MetricSlot* slot_ = nullptr;
};

// Fixed-bucket histogram: bucket i counts samples <= bounds[i] (cumulative
// style is applied at export time; storage is per-bucket).
class Histogram {
 public:
  Histogram() = default;
  void record(double v);
  std::uint64_t count() const { return slot_ ? slot_->count : 0; }
  double sum() const { return slot_ ? slot_->sum : 0.0; }
  double mean() const {
    return slot_ && slot_->count > 0
               ? slot_->sum / static_cast<double>(slot_->count)
               : 0.0;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::MetricSlot* slot) : slot_(slot) {}
  detail::MetricSlot* slot_ = nullptr;
};

// One metric's state at snapshot time.
struct MetricValue {
  // Views the registry's slot name (slots have stable addresses and names
  // never mutate after registration), so sampling on a tight cadence does
  // not allocate one string per metric per snapshot. A raw snapshot must
  // not outlive the registry it was taken from; MetricsTimeline::record
  // re-points names into storage the timeline owns, so recorded
  // snapshots may outlive the registry (sessions tear their private
  // Telemetry down before the caller reads the series).
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;                        // counter total / gauge level
  std::vector<double> bounds;                // histogram only
  std::vector<std::uint64_t> bucket_counts;  // histogram only
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct MetricsSnapshot {
  TimePoint at = kTimeZero;
  std::vector<MetricValue> values;  // sorted by name

  // Binary search by name (values are sorted); nullptr when absent.
  const MetricValue* find(std::string_view name) const;

  std::string to_json() const;
};

class MetricsRegistry {
 public:
  // Registration is idempotent: the same name always returns a handle to
  // the same slot. Re-registering a name under a different kind (or a
  // histogram under different bounds) throws std::invalid_argument.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  std::size_t size() const { return slots_.size(); }
  MetricsSnapshot snapshot(TimePoint at) const;

 private:
  detail::MetricSlot& slot(std::string_view name, MetricKind kind,
                           std::vector<double>* bounds);

  std::deque<detail::MetricSlot> slots_;  // deque: stable addresses
  std::map<std::string, detail::MetricSlot*, std::less<>> index_;
  // Name-ordered slot pointers, rebuilt lazily when registrations change;
  // lets the snapshotter walk a contiguous array instead of map nodes.
  mutable std::vector<const detail::MetricSlot*> ordered_;
};

// Accumulates snapshots over a run for time-series export. Recording
// interns every metric name into timeline-owned storage (keyed by the
// registry slot's stable address, so steady-state sampling does one
// pointer-keyed lookup per metric instead of a string allocation), which
// lets the series be read after the registry that produced it is gone.
class MetricsTimeline {
 public:
  // Recorded snapshots view names in names_: a copy's would still view the
  // source's map, so copying is an error. A move keeps the map's nodes,
  // and the views stay valid.
  MetricsTimeline() = default;
  MetricsTimeline(const MetricsTimeline&) = delete;
  MetricsTimeline& operator=(const MetricsTimeline&) = delete;
  MetricsTimeline(MetricsTimeline&&) = default;
  MetricsTimeline& operator=(MetricsTimeline&&) = default;

  void record(MetricsSnapshot snap);
  const std::vector<MetricsSnapshot>& snapshots() const { return snapshots_; }
  bool empty() const { return snapshots_.empty(); }

  // Long format: `time_s,metric,value`. Histograms flatten to
  // `<name>.count`, `<name>.sum`, `<name>.mean`, `<name>.min`,
  // `<name>.max`, and cumulative `<name>.le_<bound>` rows.
  std::string to_csv() const;

 private:
  std::vector<MetricsSnapshot> snapshots_;
  // node-based: interned strings keep stable addresses as the map grows
  std::map<const void*, std::string> names_;
  // Steady-state fast path: one registry feeds a timeline, so successive
  // snapshots carry the same slot-name pointers in the same order and a
  // single sweep of pointer+content checks replaces the map lookups.
  std::vector<std::pair<const char*, const std::string*>> last_;
};

}  // namespace mpdash
