#include "counting_sink.h"

#include <cstring>
#include <string_view>

namespace perfbench {

using mpdash::TraceRecord;
using mpdash::TraceType;

namespace {

bool label_is(const TraceRecord& r, const char* s) {
  return r.label != nullptr && std::strcmp(r.label, s) == 0;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

void CountingSink::on_record(const TraceRecord& r) {
  ++by_type_[static_cast<std::size_t>(r.type)];
  switch (r.type) {
    case TraceType::kPacketSend:
      if (r.kind == mpdash::PacketKind::kData) ++data_sent;
      break;
    case TraceType::kSchedDecision:
      if (label_is(r, "begin")) {
        ++sched_begin;
        sched_open_ = true;
        sched_open_at_ = r.at;
      } else if (label_is(r, "enable")) {
        ++sched_enable;
      } else if (label_is(r, "miss")) {
        ++sched_miss;
      } else if (label_is(r, "end") && sched_open_) {
        sched_active_s += mpdash::to_seconds(r.at - sched_open_at_);
        sched_open_ = false;
      }
      break;
    case TraceType::kHttp:
      if (label_is(r, "request")) {
        ++http_request;
      } else if (label_is(r, "retry")) {
        ++http_retry;
      }
      break;
    case TraceType::kPlayer:
      if (label_is(r, "chunk_complete") && r.level >= 0 &&
          r.level < static_cast<int>(completed_by_level.size())) {
        ++completed_by_level[static_cast<std::size_t>(r.level)];
      } else if (label_is(r, "stall_end")) {
        stall_s += r.value;
      }
      break;
    default:
      break;
  }
}

std::uint64_t CountingSink::total() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : by_type_) n += c;
  return n;
}

void RegistryTotals::add(const mpdash::MetricsRegistry& registry) {
  const mpdash::MetricsSnapshot snap = registry.snapshot(mpdash::kTimeZero);
  for (const mpdash::MetricValue& v : snap.values) {
    const std::string_view n = v.name;
    if (v.kind != mpdash::MetricKind::kCounter) continue;
    if (n == "sim.executed_events") {
      executed_events += v.value;
    } else if (starts_with(n, "link.")) {
      if (ends_with(n, ".delivered_packets")) delivered_packets += v.value;
      if (ends_with(n, ".delivered_bytes")) {
        if (starts_with(n, "link.wifi.")) wifi_bytes += v.value;
        if (starts_with(n, "link.lte.")) cell_bytes += v.value;
      }
    } else if (starts_with(n, "http.")) {
      if (n == "http.retries") http_retries += v.value;
    } else if (ends_with(n, ".retransmissions")) {
      retransmissions += v.value;
    } else if (ends_with(n, ".timeouts")) {
      tcp_timeouts += v.value;
    } else if (n == "sched.transfers") {
      sched_transfers += v.value;
    } else if (n == "sched.activations") {
      sched_activations += v.value;
    } else if (n == "sched.deadline_misses") {
      sched_misses += v.value;
    } else if (n == "mptcp.mask_changes") {
      mask_changes += v.value;
    } else if (n == "player.switches") {
      switches += v.value;
    }
  }
}

}  // namespace perfbench
