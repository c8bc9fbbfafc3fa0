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
  // never mutate after registration), so a snapshot must not outlive the
  // registry it was taken from. A series that outlives its registry is a
  // MetricsTimeline, which copies the names it needs.
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
  // End-of-run export (JSON, Prometheus, roll-ups).
  MetricsSnapshot snapshot(TimePoint at) const;

 private:
  friend class MetricsTimeline;

  detail::MetricSlot& slot(std::string_view name, MetricKind kind,
                           std::vector<double>* bounds);
  // The slots in name order, rebuilt lazily when registrations change, so
  // a sample walks a contiguous array instead of map nodes.
  const std::vector<const detail::MetricSlot*>& ordered() const;

  std::deque<detail::MetricSlot> slots_;  // deque: stable addresses
  std::map<std::string, detail::MetricSlot*, std::less<>> index_;
  mutable std::vector<const detail::MetricSlot*> ordered_;
};

// One registry's metrics sampled over a run, for time-series export. A
// timeline samples one registry for its whole life (the snapshotter's, or
// `mpdash_sim download`'s single end-of-run sample) and owns everything it
// records, so it may outlive that registry and copies are safe.
//
// A sample is one row of doubles in the registry's name order: a counter
// or gauge stores its value, a histogram its count, sum, min, max and
// per-bucket counts. Names, kinds and histogram bounds are stored once per
// layout; registries only ever add metrics, so a new layout starts only
// when the registry has gained one since the previous sample.
class MetricsTimeline {
 public:
  void record(const MetricsRegistry& registry, TimePoint at);

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  TimePoint at(std::size_t i) const { return rows_[i].at; }
  // Counter total or gauge level of `name` in sample i; 0 when that sample
  // has no such scalar metric.
  double value(std::size_t i, std::string_view name) const;

  // Long format: `time_s,metric,value`. Histograms flatten to
  // `<name>.count`, `<name>.sum`, `<name>.mean`, `<name>.min`,
  // `<name>.max`, and cumulative `<name>.le_<bound>` rows.
  std::string to_csv() const;

 private:
  struct Layout {
    std::vector<std::string> names;  // name order
    std::vector<MetricKind> kinds;
    std::vector<std::vector<double>> bounds;  // empty for scalars
    std::vector<std::size_t> offsets;  // metric k's first value in a row
    std::size_t width = 0;             // doubles per row
  };
  struct Row {
    TimePoint at;
    std::size_t layout;
    std::vector<double> values;
  };

  std::vector<Layout> layouts_;
  std::vector<Row> rows_;
};

}  // namespace mpdash
