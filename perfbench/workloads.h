#pragma once
// The benchmark's three workloads. Each is a closed batch: the inputs are
// generated from the benchmark seed when the workload is constructed (the
// set-up phase), then the same inputs run untraced any number of times
// and once traced with a CountingSink on every telemetry context. Both
// kinds of pass take the same path through the simulator's Campaign
// runner (or run_fleet); tracing only adds the sink.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "counting_sink.h"

namespace perfbench {

// What one pass over the workload's inputs produced.
struct BatchResult {
  // Deterministic digest of every observable result; all passes over the
  // same inputs, traced or not, must agree on it.
  std::string fingerprint;
  int attempted = 0;  // sessions (field, fleet) or runs (chaos)
  int failed = 0;     // not ok, not completed, or with an invariant violation
  double sim_s = 0.0;  // Σ per-session simulated session seconds
  // Fidelity guards. Chaos results carry neither, so a traced chaos pass
  // derives them from its trace and registry; an untraced one reports 0.
  double qoe_mean = 0.0;
  double cell_fraction = 0.0;
  // Runner bookkeeping, from CampaignStats; 0 when no campaign runs.
  double campaign_wall_s = 0.0;
  double run_wall_sum_s = 0.0;
  // The process's peak RSS during each run (session, chaos run, or the
  // one run_fleet call), in MB; the high-water mark restarts before each.
  std::vector<double> run_peak_rss_mb;
};

// Per-layer counts of one traced pass.
struct LayerCounts {
  double events_executed = 0;
  double packets_sent = 0, packets_delivered = 0, packets_dropped = 0;
  double data_packets_sent = 0;
  double acks = 0, retransmissions = 0, tcp_timeouts = 0;
  double mask_changes = 0, subflow_failures = 0, reinjected = 0;
  double http_requests = 0, http_timeouts = 0, http_retries = 0;
  double chunks = 0, stalls = 0, switches = 0;
  double sched_decisions = 0, sched_activations = 0, deadline_misses = 0,
         chunks_engaged = 0;
  double sched_active_s = 0;  // Algorithm-1 active simulated seconds
  double fault_injected = 0, fault_skipped = 0;
  double analysed_runs = 0;   // runs that paid for span-model attribution
  double records = 0;         // every trace record the sink saw
  // Sink-versus-registry cross-checks that failed (empty = all agree).
  std::vector<std::string> mismatches;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One pass over the inputs: untraced when `counts` is null, otherwise
  // traced, with the per-layer counts written to `counts`.
  virtual BatchResult run(LayerCounts* counts) = 0;
  // Seconds spent expanding bandwidth traces during set-up.
  virtual double trace_gen_s() const { return 0.0; }
};

// Builds the named workload's inputs from `seed`; nullptr for an unknown
// name. The names are "field", "fleet-1024" and "chaos".
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// The span-model records of the first chaos run for `seed`: the input of
// the analysis driver.
std::vector<mpdash::TraceRecord> chaos_span_records(std::uint64_t seed);

}  // namespace perfbench
