#pragma once
// Trace-side and registry-side counters for the traced benchmark run.
//
// CountingSink is a TraceSink that keeps only counts: records per type,
// scheduler decisions and HTTP lifecycle events per label, and the
// Algorithm-1 active time (sum of begin→end windows). It stores no record,
// so attaching it costs a virtual call and a few increments per record.
//
// RegistryTotals sums the registry counters the per-layer metrics need,
// matching names by pattern so per-link and per-subflow instances add up.

#include <array>
#include <cstdint>

#include "telemetry/metrics.h"
#include "telemetry/trace_sink.h"

namespace perfbench {

class CountingSink final : public mpdash::TraceSink {
 public:
  void on_record(const mpdash::TraceRecord& r) override;

  std::uint64_t count(mpdash::TraceType t) const {
    return by_type_[static_cast<std::size_t>(t)];
  }
  std::uint64_t total() const;

  // kPacketSend records of data packets (first transmissions and retries).
  std::uint64_t data_sent = 0;
  // kSchedDecision records by label.
  std::uint64_t sched_begin = 0;
  std::uint64_t sched_enable = 0;
  std::uint64_t sched_miss = 0;
  // kHttp records by label.
  std::uint64_t http_request = 0;
  std::uint64_t http_retry = 0;
  // Simulated seconds Algorithm 1 was active (begin → end windows).
  double sched_active_s = 0.0;
  // kPlayer: Mbps-weighted chunk completions need the video, so the sink
  // keeps the level histogram and the stall seconds.
  std::array<std::uint64_t, 16> completed_by_level{};
  double stall_s = 0.0;

 private:
  std::array<std::uint64_t, mpdash::kTraceTypeCount> by_type_{};
  bool sched_open_ = false;
  mpdash::TimePoint sched_open_at_{};
};

// Sums of registry counters, accumulated over one or more registries.
struct RegistryTotals {
  double executed_events = 0.0;     // sim.executed_events
  double delivered_packets = 0.0;   // link.*.delivered_packets
  double wifi_bytes = 0.0;          // link.wifi.*.delivered_bytes
  double cell_bytes = 0.0;          // link.lte.*.delivered_bytes
  double retransmissions = 0.0;     // <subflow scope>.retransmissions
  double tcp_timeouts = 0.0;        // <subflow scope>.timeouts (not http.)
  double sched_transfers = 0.0;     // sched.transfers
  double sched_activations = 0.0;   // sched.activations
  double sched_misses = 0.0;        // sched.deadline_misses
  double http_retries = 0.0;        // http.retries
  double mask_changes = 0.0;        // mptcp.mask_changes
  double switches = 0.0;            // player.switches

  void add(const mpdash::MetricsRegistry& registry);
};

}  // namespace perfbench
