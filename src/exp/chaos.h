#pragma once
// Chaos campaign: seeded random fault plans swept over the parallel
// campaign runner, with per-run invariant checks.
//
// Each run derives everything mutable — the fault plan, every link's loss
// stream, the HTTP jitter stream — from one per-run seed, streams a short
// video through the full stack with recovery enabled, and then audits the
// wreckage:
//   * the session finished inside the time limit (no hung session);
//   * every chunk was delivered or cleanly abandoned;
//   * byte accounting conserved in both directions (all scheduled stream
//     bytes consumed in order, no stranded reinjection backlog);
//   * every fault window opened and closed (network restored);
//   * telemetry counters agree with the result struct.
//
// Results land in add-order slots (Campaign contract), so the campaign
// digest is bitwise identical for any --jobs value.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rollup.h"
#include "exp/session.h"
#include "exp/spec.h"
#include "fault/fault.h"
#include "runner/campaign.h"

namespace mpdash {

// Per-run triage outcome. `ok` and `violation` come from the invariant
// audit over a finished session; `hung` means the run watchdog killed a
// live- or run-away simulation (quarantined, campaign kept going);
// `crashed` means the run body threw anything else. Aggregated counts are
// jobs-invariant (results land in add-order slots).
enum class RunOutcome : std::uint8_t {
  kOk = 0,
  kViolation,
  kHung,
  kCrashed,
};

const char* to_string(RunOutcome o);

// The spec every chaos run resolves per seed: recovery on, generous
// watchdog budgets — a real chaos run is a few million events, so only a
// livelocked simulation can exhaust the sim-event budget, and the
// wall-clock backstop only fires when a run burns real time without
// burning events.
SessionSpec default_chaos_spec();

struct ChaosConfig {
  int seed_count = 50;
  std::uint64_t base_seed = 1;
  int jobs = 0;  // 0 → MPDASH_JOBS env or hardware cores
  // The per-run session description (scheme, adaptation, player/recovery/
  // watchdog knobs, scenario rates, time limit). Resolved per seed via
  // resolve_session_config / resolve_scenario_config.
  SessionSpec session = default_chaos_spec();
  // Short synthetic video (chunk_count × 2 s) keeps one run ~seconds.
  int chunk_count = 30;
  // Faults are generated inside [start_margin, fault_horizon - end_margin]
  // (see RandomPlanConfig); the session gets until the spec's time limit
  // to finish.
  RandomPlanConfig plan;
  // Per-run metrics time-series cadence; zero disables sampling. The
  // snapshotter only reads the registry, so series runs keep the same
  // digest as bare runs.
  Duration series_interval = kDurationZero;
  // Per-run JSONL trace capture; empty disables. With more than one seed
  // each run writes `<trace_path>.<seed>`. `trace_types` filters the
  // stream (parse_trace_types mask; default = everything). A trace that
  // fails to write is reported on stderr; the run's outcome stands.
  std::string trace_path;
  std::uint32_t trace_types = ~0u;
  // Per-run deadline-miss attribution: widens the in-process capture to
  // the span-model record set, runs attribute_misses over it, and fills
  // ChaosRunResult::attribution (one RollupRow keyed by seed). Sinks are
  // pure observers, so the campaign digest is unchanged.
  bool attribution = false;
  std::FILE* progress = stderr;  // nullptr silences the runner
  // When set, run_chaos_campaign writes a self-contained repro bundle
  // `repro_<seed>.json` for every non-ok run into this directory (created
  // on demand; see emit_repro_bundle).
  std::string bundle_dir;
  // Test-only: runs on the session's event loop before the session starts
  // (livelock injection for the watchdog/quarantine tests). Never set in
  // production paths.
  std::function<void(EventLoop&, std::uint64_t)> pre_session_hook;
};

struct ChaosRunResult {
  std::uint64_t seed = 0;
  bool completed = false;
  double session_s = 0.0;
  int chunks_delivered = 0;
  int chunks_abandoned = 0;
  int chunk_retries = 0;
  int stalls = 0;
  int subflow_failures = 0;
  int subflow_revivals = 0;
  int reinjected_packets = 0;
  int http_timeouts = 0;
  int http_retries = 0;
  int faults_started = 0;
  int faults_skipped = 0;
  bool manifest_failed = false;
  // Triage outcome; kHung runs carry the watchdog's reason in
  // `hung_reason` and no session counters (the run was aborted mid-sim).
  RunOutcome outcome = RunOutcome::kOk;
  std::string hung_reason;
  std::vector<std::string> violations;  // empty = all invariants hold
  // Per-run QoE/byte-share time series (kChaosSeriesHeader rows, no
  // header); empty unless ChaosConfig::series_interval > 0.
  std::string series_csv;
  // Per-run miss attribution roll-up (key = seed); only meaningful when
  // ChaosConfig::attribution was set.
  bool has_attribution = false;
  RollupRow attribution;

  bool ok() const { return outcome == RunOutcome::kOk; }
  // Deterministic one-line digest of everything observable; the jobs-N
  // vs jobs-1 comparison hashes these.
  std::string fingerprint() const;
};

// Jobs-invariant outcome tally for a whole campaign.
struct OutcomeCounts {
  int ok = 0;
  int violation = 0;
  int hung = 0;
  int crashed = 0;

  int bad() const { return violation + hung + crashed; }
  void add(RunOutcome o);
};

// Campaign bookkeeping shared by the chaos and fleet campaigns. `Run` is
// ChaosRunResult or FleetResult: a seed, an outcome, violation strings and
// a one-line fingerprint().
template <typename Run>
OutcomeCounts count_outcomes(const std::vector<Run>& runs) {
  OutcomeCounts c;
  for (const Run& r : runs) c.add(r.outcome);
  return c;
}

// Concatenated per-run fingerprints: equal digests ⇔ identical campaigns.
template <typename Run>
std::string runs_digest(const std::vector<Run>& runs) {
  std::string out;
  for (const Run& r : runs) {
    out += r.fingerprint();
    out += '\n';
  }
  return out;
}

// A run whose body threw anything but a watchdog trip (which the run
// reports itself, as kHung): outcome kCrashed, the error its violation.
template <typename Run>
void mark_crashed(Run* run, const std::string& error) {
  run->outcome = RunOutcome::kCrashed;
  run->violations.push_back("run threw: " + error);
}

// Runs a chaos or fleet campaign into its `Result` (runs + stats): runs
// land in add order, each one whose body threw marked crashed under the
// seed the campaign derived for it.
template <typename Result, typename Run>
Result run_campaign(const Campaign<Run>& campaign, int jobs,
                    std::FILE* progress) {
  CampaignResult<Run> res = campaign.run(CampaignOptions{jobs, progress});
  for (std::size_t i = 0; i < res.results.size(); ++i) {
    if (!res.reports[i].ok) {
      res.results[i].seed = res.reports[i].seed;
      mark_crashed(&res.results[i], res.reports[i].error);
    }
  }
  Result out;
  out.runs = std::move(res.results);
  out.stats = res.stats;
  return out;
}

struct ChaosCampaignResult {
  std::vector<ChaosRunResult> runs;  // seed order
  CampaignStats stats;

  int violation_count() const;
  OutcomeCounts outcome_counts() const { return count_outcomes(runs); }
  // Every run finished with outcome kOk.
  bool clean() const { return outcome_counts().bad() == 0; }
  std::string digest() const { return runs_digest(runs); }
};

// Audits one finished session against the chaos invariants. Exposed so
// tests can run single sessions through the same checks.
std::vector<std::string> check_chaos_invariants(const SessionResult& res,
                                                int chunk_count);

// Audits telemetry-counter consistency: the counters in `m` must agree
// with the result struct (an instrumentation site drifting from the source
// of truth is a bug the goldens can't see). `m` must be the registry the
// session instrumented into — run-private for chaos, per-tenant for fleet.
std::vector<std::string> check_counter_invariants(MetricsRegistry& m,
                                                  const SessionResult& res);

// Audits the pipelined request lifecycle from a (kHttp | kSpanStart |
// kSpanEnd)-filtered trace: no HTTP response may be delivered to a span
// that already closed (a stale late response must be discarded, never
// surfaced), no span reopens, and no request exceeds its retry budget.
// Holds for sequential runs too (the sequential player is inflight = 1).
std::vector<std::string> check_pipeline_invariants(
    const std::vector<TraceRecord>& trace, int max_retries);

// The synthetic chaos video for `cfg.chunk_count` chunks.
Video chaos_video(const ChaosConfig& cfg);

// The exact campaign run body for one seed with an explicit fault plan:
// scenario/session resolved from (cfg.session, seed), watchdog armed,
// invariants audited, outcome assigned. Exposed so `mpdash_sim repro` and
// the shrinker replay a bundle's stored plan through the identical code
// path the campaign ran — same seeds, same audits, same strings. (The
// campaign, not this function, writes the bundle of a non-ok run.)
ChaosRunResult run_chaos_single(const ChaosConfig& cfg, const Video& video,
                                std::uint64_t seed, const FaultPlan& plan,
                                Telemetry& telemetry);

// Column header for qoe_series_csv rows (includes the trailing newline).
extern const char kChaosSeriesHeader[];

// Flattens a sampled MetricsTimeline into QoE/byte-share CSV rows, one
// per snapshot, each prefixed with `seed` so campaign-level aggregation
// stays unambiguous.
std::string qoe_series_csv(const MetricsTimeline& timeline,
                           std::uint64_t seed);

ChaosCampaignResult run_chaos_campaign(const ChaosConfig& cfg);

}  // namespace mpdash
