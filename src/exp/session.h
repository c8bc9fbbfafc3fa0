#pragma once
// End-to-end experiment runners: StreamingRun, the run engine behind single
// sessions and fleets; a full DASH streaming session (the §7.3 evaluations);
// and a single deadline-aware file download (the §7.2 scheduler-only
// evaluations), each returning the metrics the paper reports.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapt/adaptation.h"
#include "dash/player.h"
#include "energy/accounting.h"
#include "exp/scenario.h"
#include "mptcp/scheduler.h"
#include "runner/watchdog.h"
#include "telemetry/telemetry.h"

namespace mpdash {

struct FaultPlan;
class FaultInjector;

enum class Scheme : std::uint8_t {
  kWifiOnly,         // single path (no MPTCP)
  kBaseline,         // vanilla MPTCP
  kMpDashDuration,   // MP-DASH, duration-based deadline
  kMpDashRate,       // MP-DASH, rate-based deadline
};

const char* to_string(Scheme s);
bool scheme_uses_mpdash(Scheme s);

// Factory for the evaluated DASH algorithms: "gpac", "festive", "bba",
// "bba-c", "mpc".
std::unique_ptr<RateAdaptation> make_adaptation(const std::string& name);

// Whether `make` (make_adaptation, make_scheduler) builds `name`. The
// factories hold the one list of names, so input is checked against them
// up front: an unknown name is bad input, not a run that crashes.
template <typename Factory>
bool factory_builds(Factory make, const std::string& name) {
  try {
    return make(name) != nullptr;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

struct SessionConfig {
  Scheme scheme = Scheme::kBaseline;
  std::string adaptation = "festive";
  std::string mptcp_scheduler = "minrtt";
  double alpha = 1.0;
  // Deadline-scheduler enable debounce (see DeadlineSchedulerConfig).
  int debounce_ticks = 2;
  PlayerConfig player;
  Duration time_limit = seconds(1800.0);
  // Sampling cadence when SessionEnv::metrics is set.
  Duration metrics_interval = seconds(1.0);

  // --- robustness (all default off: seed-identical behavior) -----------
  // Transport recovery: subflow-failure detection + reinjection on both
  // endpoints (inert while max_consecutive_rtos == 0).
  MptcpFailureConfig mptcp_recovery;
  // Application recovery: HTTP request timeout/retry layer (inert while
  // request_timeout == 0).
  HttpClientConfig http_recovery;
  // Run watchdog budgets (sim events / wall clock); inert while disabled.
  // A tripped budget aborts the run by throwing WatchdogTripped out of
  // run_streaming_session — campaign callers map it to a `hung` outcome.
  WatchdogConfig watchdog;
};

// The borrowed externals a session runs against, grouped so ownership is
// explicit at the signature level: everything here outlives the session
// and is never owned by it. SessionConfig stays a pure value.
struct SessionEnv {
  // Telemetry context (extra sinks, shared registry); null = none.
  Telemetry* telemetry = nullptr;
  // When set, the telemetry context's registry is sampled here every
  // SessionConfig::metrics_interval. Requires `telemetry`:
  // run_streaming_session throws std::invalid_argument without it.
  MetricsTimeline* metrics = nullptr;
  // Fault plan injected during the run; null = no faults.
  const FaultPlan* faults = nullptr;
};

struct SessionResult {
  bool completed = false;
  double session_s = 0.0;

  Bytes wifi_bytes = 0;
  Bytes cell_bytes = 0;
  double cell_fraction = 0.0;  // of total delivered wire bytes

  int stalls = 0;
  double stall_s = 0.0;
  int switches = 0;
  int chunks = 0;
  double avg_bitrate_mbps = 0.0;         // all chunks
  double steady_avg_bitrate_mbps = 0.0;  // last 80 %
  int deadline_misses = 0;
  int chunks_engaged = 0;   // MP-DASH activated for these

  // Radio energy on the paper's Galaxy Note profile.
  double wifi_energy_j = 0.0;
  double lte_energy_j = 0.0;
  double energy_j() const { return wifi_energy_j + lte_energy_j; }

  std::vector<ChunkRecord> chunk_log;

  // --- robustness / chaos accounting -----------------------------------
  int subflow_failures = 0;
  int subflow_revivals = 0;
  int reinjected_packets = 0;
  std::uint64_t reinject_backlog = 0;  // nonzero = data stranded at exit
  int http_timeouts = 0;
  int http_retries = 0;
  int chunk_retries = 0;
  int chunks_abandoned = 0;
  bool manifest_failed = false;
  int faults_started = 0;
  int faults_skipped = 0;
  bool faults_quiescent = true;  // every fault window opened and closed
  // Byte accounting per direction: one past the highest connection-level
  // byte the sender scheduled vs. what the receiver consumed in order.
  std::uint64_t server_data_seq_high = 0;
  std::uint64_t client_bytes_in_order = 0;
  std::uint64_t client_data_seq_high = 0;
  std::uint64_t server_bytes_in_order = 0;
};

// One tenant of a StreamingRun: the session its stack is built from, the
// time its manifest fetch starts, and the context the stack instruments
// into (borrowed; null = none). The time limit and watchdog are the run's
// (StreamingRun::run), not the tenant's.
struct RunTenant {
  SessionConfig config;
  TimePoint join = kTimeZero;
  Telemetry* telemetry = nullptr;
};

// The one run engine: N >= 1 streaming tenants on one Scenario's event
// loop. Tenant i runs the full session stack — MPTCP connection, DASH
// server, HTTP client, adaptation, MP-DASH socket/adapter, player — over
// its flow's for_flow(i) views of the scenario's paths. What is wired once
// per run lives here: the fault plan, the joins, one watchdog, and the
// collection of each tenant's counters. A single session is a one-tenant
// run (run_streaming_session); a fleet is N tenants (exp/fleet.h).
//
// Construction order is part of the determinism contract, since event ids
// derive from scheduling order: the stacks build in tenant order and
// schedule nothing, the plan arms next, observers a caller adds (energy
// probe, metrics snapshotter) are built after the engine, and run() starts
// the tenants.
class StreamingRun {
 public:
  // `telemetry` (borrowed, optional) is the run's own context: the
  // scenario's loop and links and the fault injector instrument into it.
  // The plan (copied; null or empty = no faults) attaches to every path
  // of the scenario, including one a wifi-only tenant leaves unused, and
  // its server faults reach every tenant's origin.
  StreamingRun(Scenario& scenario, const Video& video,
               const std::vector<RunTenant>& tenants,
               const FaultPlan* faults, Telemetry* telemetry);
  ~StreamingRun();

  StreamingRun(const StreamingRun&) = delete;
  StreamingRun& operator=(const StreamingRun&) = delete;

  // Flips true when the last tenant finishes playback.
  const bool& finished() const { return finished_; }
  // Starts the tenants due now, schedules the later joins, and runs the
  // loop until `time_limit` under one watchdog: a tripped budget throws
  // WatchdogTripped out of here.
  void run(Duration time_limit, const WatchdogConfig& watchdog);
  // The tenant's player, transport and robustness counters and its
  // steady-state bitrate stats; session_s runs from its join, and the wire
  // bytes are its own flow's. Fault counts are the run's (faults()).
  SessionResult collect(int tenant) const;
  // The run's fault injector; null without a plan.
  const FaultInjector* faults() const { return injector_.get(); }

 private:
  struct Tenant;

  Scenario& scenario_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unique_ptr<FaultInjector> injector_;
  // The later tenants' join events; each callback holds its player.
  std::vector<EventId> joins_;
  std::size_t done_ = 0;
  bool finished_ = false;
};

SessionResult run_streaming_session(Scenario& scenario, const Video& video,
                                    const SessionConfig& config,
                                    const SessionEnv& env = {});

// --- §7.2: scheduler-only single-file download -------------------------
struct DownloadConfig {
  Bytes size = megabytes(5);
  Duration deadline = seconds(10.0);
  bool use_mpdash = true;
  std::string mptcp_scheduler = "minrtt";
  double alpha = 1.0;
  Duration time_limit = seconds(600.0);
  // Externally-owned telemetry context, wired for the duration of the run.
  Telemetry* telemetry = nullptr;
  // Runs a small (500 kB) unmeasured transfer first so congestion windows
  // and throughput estimates are warm — the paper averages 10 consecutive
  // runs on a live connection, so its measured downloads never start
  // cold. Byte and energy accounting cover only the measured transfer.
  bool warmup = false;
};

struct DownloadResult {
  bool completed = false;
  Duration finish_time = kDurationZero;
  bool deadline_missed = false;
  Bytes wifi_bytes = 0;
  Bytes cell_bytes = 0;
  // Radio energy on the paper's Galaxy Note profile.
  double wifi_energy_j = 0.0;
  double lte_energy_j = 0.0;
  double energy_j() const { return wifi_energy_j + lte_energy_j; }
  // Energy accounted only over the transfer itself (horizon = finish
  // time, post-transfer radio tails excluded) — the windowing the paper's
  // small per-download Joule figures imply.
  double transfer_energy_j = 0.0;
};

DownloadResult run_download_session(Scenario& scenario,
                                    const DownloadConfig& config);

}  // namespace mpdash
