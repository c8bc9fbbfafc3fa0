#pragma once
// Fleet workload: N concurrent DASH sessions on one event loop contending
// on a single shared WiFi AP + cellular bottleneck pair.
//
// The fleet is an N-tenant StreamingRun (exp/session.h): each tenant runs
// the full per-session stack (player, adaptation, MP-DASH adapter, MPTCP
// connection, recovery layers) over its own flow's NetPath views of one
// Scenario's links: packets are stamped with the tenant's flow id and the
// shared links arbitrate between flows with the configured queue
// discipline (FIFO or deficit-round-robin fair queueing). Tenants join
// staggered, stream to completion, and the fleet reports per-session
// SessionResults plus cross-session aggregates: QoE mean/p10, Jain
// fairness on steady-state bitrate, and cellular-byte totals.
//
// Determinism contract: everything mutable derives from FleetConfig::seed
// (per-tenant seeds via derive_stream_seed(seed, "session/<i>"), link loss
// streams via the "links" stream), tenants are constructed and scheduled
// in session order, and campaign results land in add-order slots — so the
// per-session CSV is bitwise identical for any --jobs count.
//
// Chaos composes: a fleet-level fault plan attaches to the *shared* links,
// so one AP blackout perturbs every tenant at once; the whole fleet runs
// under one watchdog and non-ok campaign runs emit self-contained repro
// bundles (exp/repro.h), which `mpdash_sim repro` and `shrink` take.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "exp/spec.h"

namespace mpdash {

struct FleetConfig {
  // Tenant count and the one seed everything derives from.
  int sessions = 4;
  std::uint64_t seed = 1;
  // Short synthetic video per tenant (chunk_count × 2 s).
  int chunk_count = 20;
  // Per-tenant session descriptions, cycled (tenant i gets
  // mix[i % mix.size()]); empty = every tenant runs SessionSpec{} defaults.
  std::vector<SessionSpec> mix;

  // --- shared bottleneck shape -----------------------------------------
  QueueDiscipline discipline = QueueDiscipline::kFairQueue;
  Bytes fq_quantum = 1500;
  // Aggregate capacities all tenants share (not per-tenant).
  double wifi_mbps = 20.0;
  double lte_mbps = 12.0;
  double wifi_up_mbps = 12.0;
  double lte_up_mbps = 8.0;
  Duration wifi_rtt = milliseconds(50);
  Duration lte_rtt = milliseconds(55);
  // Shared drop-tail buffer per link. Larger than the single-tenant
  // default: N flows share it (FQ sheds from the largest flow's queue).
  Bytes queue_capacity = 384 * 1000;

  // Tenant i starts its manifest fetch at i × join_stagger.
  Duration join_stagger = seconds(1.0);
  // Whole-fleet budget; tenants still streaming at the limit are flagged.
  Duration time_limit = seconds(1800.0);
  // One watchdog guards the whole fleet (per-tenant watchdog specs are
  // ignored — EventLoop has a single pre-event hook).
  WatchdogConfig watchdog{500'000'000, 900.0};
  // Fleet-level fault plan applied to the shared links (path ids
  // kWifiPathId / kCellularPathId) and every tenant's origin server.
  // Borrowed; null = no faults.
  const FaultPlan* faults = nullptr;

  friend bool operator==(const FleetConfig&, const FleetConfig&) = default;
};

// Stall penalty in the per-tenant linear QoE: steady-state Mbps minus
// kFleetStallPenalty per stalled second (the MPC-style linear QoE with the
// paper's top encoding, 2.4 Mbps, as a 24 s-stall-equivalent unit).
inline constexpr double kFleetStallPenalty = 0.1;

struct FleetSessionResult {
  int session = 0;
  std::uint64_t seed = 0;  // the tenant's derived seed
  Scheme scheme = Scheme::kMpDashDuration;
  std::string adaptation;
  double join_s = 0.0;
  // Full per-tenant metrics; wifi/cell bytes are this tenant's per-flow
  // wire-byte slices of the shared links, session_s is measured from join.
  SessionResult result;
  double qoe = 0.0;
  // Per-tenant invariant audit (chaos invariants + telemetry counters),
  // also hoisted into FleetResult::violations with a "session i:" prefix.
  std::vector<std::string> violations;
};

struct FleetResult {
  std::uint64_t seed = 0;
  RunOutcome outcome = RunOutcome::kOk;
  std::string hung_reason;  // kHung only (fleet watchdog tripped)
  std::vector<FleetSessionResult> sessions;
  // Fleet-level violations: per-tenant audits (prefixed) + shared fault
  // quiescence.
  std::vector<std::string> violations;

  // --- cross-session aggregates ----------------------------------------
  int completed = 0;      // tenants that finished playback
  double qoe_mean = 0.0;
  double qoe_p10 = 0.0;   // nearest-rank 10th percentile
  // Jain fairness index (Σx)² / (n·Σx²) over per-tenant steady-state
  // bitrates; 1.0 = perfectly equal shares (and, by convention, n = 0 or
  // all-zero inputs).
  double jain_fairness = 1.0;
  Bytes wifi_bytes = 0;   // shared-link totals across all tenants
  Bytes cell_bytes = 0;
  double cell_fraction = 0.0;
  int faults_started = 0;
  int faults_skipped = 0;

  bool ok() const { return outcome == RunOutcome::kOk; }
  // Deterministic one-line digest (aggregates + violation count); the
  // per-session CSV carries the rest of the observable state.
  std::string fingerprint() const;
};

// Runs one fleet. `telemetry` (optional, borrowed) is wired to the event
// loop, the shared links and the fault injector; each tenant instruments
// into its own private registry for the per-tenant counter audit.
FleetResult run_fleet(const FleetConfig& cfg, Telemetry* telemetry = nullptr);

// Column header for fleet_sessions_csv rows (includes trailing newline).
extern const char kFleetCsvHeader[];

// One CSV row per tenant, session order, deterministic formatting (no
// header). The CI fleet lane compares these files bitwise across --jobs.
std::string fleet_sessions_csv(const FleetResult& r);

// --- campaign ----------------------------------------------------------

struct FleetCampaignConfig {
  // Per-run template; `fleet.seed` is replaced by each run's derived seed
  // and `fleet.faults` by the per-run random plan when `chaos` is set.
  FleetConfig fleet;
  int seed_count = 10;
  std::uint64_t base_seed = 1;
  int jobs = 0;  // 0 → MPDASH_JOBS env or hardware cores
  // Seeded random fault plan per run, injected on the shared links.
  bool chaos = false;
  RandomPlanConfig plan;
  // When set, every non-ok run writes fleet_repro_<seed>.json here.
  std::string bundle_dir;
  std::FILE* progress = stderr;
};

struct FleetCampaignResult {
  std::vector<FleetResult> runs;  // seed order
  CampaignStats stats;

  OutcomeCounts outcome_counts() const { return count_outcomes(runs); }
  bool clean() const { return outcome_counts().bad() == 0; }
  // Concatenated per-run fingerprints: equal digests ⇔ identical campaigns.
  std::string digest() const { return runs_digest(runs); }
  // Header + every run's per-session rows, seed order.
  std::string sessions_csv() const;
};

FleetCampaignResult run_fleet_campaign(const FleetCampaignConfig& cfg);

}  // namespace mpdash
