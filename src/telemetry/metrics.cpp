#include "telemetry/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/json.h"

namespace mpdash {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void Histogram::record(double v) {
  if (!slot_) return;
  auto& s = *slot_;
  // Inclusive upper edges (Prometheus `le` convention): first bound >= v.
  const auto it = std::lower_bound(s.bounds.begin(), s.bounds.end(), v);
  ++s.bucket_counts[static_cast<std::size_t>(it - s.bounds.begin())];
  if (s.count == 0) {
    s.min = v;
    s.max = v;
  } else {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  ++s.count;
  s.sum += v;
}

detail::MetricSlot& MetricsRegistry::slot(std::string_view name,
                                          MetricKind kind,
                                          std::vector<double>* bounds) {
  if (auto it = index_.find(name); it != index_.end()) {
    detail::MetricSlot& existing = *it->second;
    if (existing.kind != kind) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered as " +
                                  to_string(existing.kind));
    }
    if (bounds && existing.bounds != *bounds) {
      throw std::invalid_argument("histogram '" + std::string(name) +
                                  "' already registered with other bounds");
    }
    return existing;
  }
  detail::MetricSlot s;
  s.name = std::string(name);
  s.kind = kind;
  if (bounds) {
    if (!std::is_sorted(bounds->begin(), bounds->end())) {
      throw std::invalid_argument("histogram bounds must be sorted");
    }
    s.bounds = *bounds;
    s.bucket_counts.assign(bounds->size() + 1, 0);
  }
  slots_.push_back(std::move(s));
  index_.emplace(slots_.back().name, &slots_.back());
  return slots_.back();
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(&slot(name, MetricKind::kCounter, nullptr));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(&slot(name, MetricKind::kGauge, nullptr));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  return Histogram(&slot(name, MetricKind::kHistogram, &bounds));
}

const std::vector<const detail::MetricSlot*>& MetricsRegistry::ordered()
    const {
  // index_ is name-ordered, making samples stable across runs; the flat
  // cache only memoizes that order between registrations.
  if (ordered_.size() != slots_.size()) {
    ordered_.clear();
    ordered_.reserve(slots_.size());
    for (const auto& [name, s] : index_) ordered_.push_back(s);
  }
  return ordered_;
}

MetricsSnapshot MetricsRegistry::snapshot(TimePoint at) const {
  MetricsSnapshot snap;
  snap.at = at;
  snap.values.reserve(slots_.size());
  for (const detail::MetricSlot* s : ordered()) {
    snap.values.emplace_back(MetricValue{s->name, s->kind, s->value, s->bounds,
                                         s->bucket_counts, s->count, s->sum,
                                         s->min, s->max});
  }
  return snap;
}

void MetricsTimeline::record(const MetricsRegistry& registry, TimePoint at) {
  const std::vector<const detail::MetricSlot*>& slots = registry.ordered();
  if (layouts_.empty() || layouts_.back().names.size() != slots.size()) {
    Layout& layout = layouts_.emplace_back();
    for (const detail::MetricSlot* s : slots) {
      layout.names.push_back(s->name);
      layout.kinds.push_back(s->kind);
      layout.bounds.push_back(s->bounds);
      layout.offsets.push_back(layout.width);
      layout.width += s->kind == MetricKind::kHistogram
                          ? 4 + s->bucket_counts.size()
                          : 1;
    }
  }
  Row& row = rows_.emplace_back(Row{at, layouts_.size() - 1, {}});
  row.values.reserve(layouts_.back().width);
  for (const detail::MetricSlot* s : slots) {
    if (s->kind != MetricKind::kHistogram) {
      row.values.push_back(s->value);
      continue;
    }
    row.values.insert(row.values.end(),
                      {static_cast<double>(s->count), s->sum, s->min, s->max});
    for (const std::uint64_t c : s->bucket_counts) {
      row.values.push_back(static_cast<double>(c));
    }
  }
}

double MetricsTimeline::value(std::size_t i, std::string_view name) const {
  const Row& row = rows_[i];
  const Layout& layout = layouts_[row.layout];
  const auto it =
      std::lower_bound(layout.names.begin(), layout.names.end(), name);
  if (it == layout.names.end() || *it != name) return 0.0;
  const auto k = static_cast<std::size_t>(it - layout.names.begin());
  return layout.kinds[k] == MetricKind::kHistogram
             ? 0.0
             : row.values[layout.offsets[k]];
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"time_s\":" + json_double(to_seconds(at)) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& v : values) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += v.name;  // metric names are plain identifiers, no escaping needed
    out += "\":";
    if (v.kind == MetricKind::kHistogram) {
      out += "{\"count\":" + std::to_string(v.count) +
             ",\"sum\":" + json_double(v.sum) +
             ",\"min\":" + json_double(v.min) +
             ",\"max\":" + json_double(v.max) + ",\"buckets\":[";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < v.bucket_counts.size(); ++i) {
        if (i > 0) out += ',';
        cumulative += v.bucket_counts[i];
        out += "{\"le\":";
        out += i < v.bounds.size() ? json_double(v.bounds[i]) : "\"inf\"";
        out += ",\"count\":" + std::to_string(cumulative) + "}";
      }
      out += "]}";
    } else {
      out += json_double(v.value);
    }
  }
  out += "}}";
  return out;
}

std::string MetricsTimeline::to_csv() const {
  std::string out = "time_s,metric,value\n";
  auto row = [&out](double t, std::string_view name, double value) {
    out += json_double(t);
    out += ',';
    out += name;
    out += ',';
    out += json_double(value);
    out += '\n';
  };
  for (const Row& r : rows_) {
    const Layout& layout = layouts_[r.layout];
    const double t = to_seconds(r.at);
    for (std::size_t k = 0; k < layout.names.size(); ++k) {
      const std::string& name = layout.names[k];
      const double* v = &r.values[layout.offsets[k]];
      if (layout.kinds[k] != MetricKind::kHistogram) {
        row(t, name, v[0]);
        continue;
      }
      // v: count, sum, min, max, then one count per bucket
      const std::vector<double>& bounds = layout.bounds[k];
      row(t, name + ".count", v[0]);
      row(t, name + ".sum", v[1]);
      if (v[0] > 0.0) {
        row(t, name + ".mean", v[1] / v[0]);
        row(t, name + ".min", v[2]);
        row(t, name + ".max", v[3]);
      }
      double cumulative = 0.0;
      for (std::size_t b = 0; b <= bounds.size(); ++b) {
        cumulative += v[4 + b];
        const std::string suffix = b < bounds.size()
                                       ? ".le_" + json_double(bounds[b])
                                       : std::string(".le_inf");
        row(t, name + suffix, cumulative);
      }
    }
  }
  return out;
}

}  // namespace mpdash
