#include "telemetry/prometheus.h"

#include <cstdint>

#include "util/json.h"

namespace mpdash {
namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

const char* type_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

// Renders `{a="x",b="y"}` from pre-sanitized pairs plus an optional
// trailing le pair; empty string when there is nothing to attach.
std::string label_block(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string* le) {
  if (labels.empty() && le == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  if (le != nullptr) {
    if (!first) out += ',';
    out += "le=\"" + *le + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') {
    out += '_';
  }
  for (char c : name) out += name_char_ok(c) ? c : '_';
  if (out.empty()) out = "_";
  return out;
}

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap,
                          const PrometheusOptions& opts) {
  std::vector<std::pair<std::string, std::string>> labels;
  labels.reserve(opts.labels.size());
  for (const auto& [k, v] : opts.labels) {
    labels.emplace_back(prometheus_name(k), prometheus_escape_label(v));
  }

  std::string stamp;
  if (opts.timestamps) {
    stamp = " " + std::to_string(static_cast<std::int64_t>(
                      to_seconds(snap.at) * 1000.0));
  }

  std::string out;
  for (const MetricValue& v : snap.values) {
    const std::string name = prometheus_name(v.name);
    out += "# HELP " + name + " Simulation metric " + std::string(v.name) +
           "\n";
    out += "# TYPE " + name + " " + type_name(v.kind) + "\n";
    if (v.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < v.bucket_counts.size(); ++i) {
        cumulative += v.bucket_counts[i];
        const std::string le =
            i < v.bounds.size() ? json_double(v.bounds[i]) : "+Inf";
        out += name + "_bucket" + label_block(labels, &le) + " " +
               std::to_string(cumulative) + stamp + "\n";
      }
      out += name + "_sum" + label_block(labels, nullptr) + " " +
             json_double(v.sum) + stamp + "\n";
      out += name + "_count" + label_block(labels, nullptr) + " " +
             std::to_string(v.count) + stamp + "\n";
    } else {
      out += name + label_block(labels, nullptr) + " " + json_double(v.value) +
             stamp + "\n";
    }
  }
  return out;
}

}  // namespace mpdash
