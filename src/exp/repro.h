#pragma once
// Repro bundles: a self-contained JSON description of one failing run —
// one chaos session or one whole fleet — with the exact fault plan, the
// seed, and the outcome and violation strings the campaign observed.
// `mpdash_sim repro <bundle>` replays either kind through the campaign's
// own run function (run_chaos_single or run_fleet) and verifies the same
// outcome and the same violation strings reproduce bitwise; the shrinker
// uses the same run as its delta-debugging oracle.
//
// Each kind keeps the on-disk layout its campaign has always written:
// "mpdash-repro" schema 2 for a session (schema-1 flat bundles still
// load) and "mpdash-fleet-repro" schema 1 for a fleet. Serialization is
// canonical (fixed field order, integer-ns times, shortest-round-trip
// doubles), so serialize → parse → re-serialize is bitwise stable and
// minimized bundles can be compared as strings.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "exp/fleet.h"
#include "fault/fault.h"

namespace mpdash {

struct ReproBundle {
  // The layout version the bundle was loaded from. Session bundles:
  // schema 1 stored the knobs as flat top-level fields, schema 2 embeds
  // the canonical SessionSpec. Fleet bundles are schema 1. The serializer
  // always writes the current schema of the bundle's kind.
  int schema = 2;
  std::uint64_t seed = 0;
  // A chaos session: the spec the campaign resolved per seed — together
  // with chunk_count, enough to rebuild the exact configuration it ran.
  SessionSpec spec;
  int chunk_count = 30;
  // A fleet instead, when set: spec and chunk_count are unused, and
  // fleet->faults is ignored (the plan below is authoritative).
  std::optional<FleetConfig> fleet;
  FaultPlan plan;
  // What the originating run observed; replay verifies against these.
  RunOutcome outcome = RunOutcome::kViolation;
  std::string hung_reason;
  std::vector<std::string> expected_violations;

  // The horizon the run is judged against (the session's or the whole
  // fleet's time limit); the shrinker's horizon ladder halves it.
  Duration& time_limit() { return fleet ? fleet->time_limit : spec.time_limit; }
  Duration time_limit() const {
    return fleet ? fleet->time_limit : spec.time_limit;
  }
};

// Canonical serialization (see header comment).
std::string repro_bundle_to_json(const ReproBundle& b);
bool repro_bundle_from_json(const std::string& text, ReproBundle* out,
                            std::string* error);

// File I/O through util's write_file/read_file. write_ creates the parent
// directory on demand.
bool write_repro_bundle(const ReproBundle& b, const std::string& path,
                        std::string* error);
bool load_repro_bundle(const std::string& path, ReproBundle* out,
                       std::string* error);

// The per-seed bundle filename a campaign emits: <dir>/repro_<seed>.json,
// or <dir>/fleet_repro_<seed>.json for a fleet.
std::string repro_bundle_path(const std::string& dir, std::uint64_t seed,
                              bool fleet = false);

// Snapshot of a non-ok campaign run as a bundle.
ReproBundle make_repro_bundle(const ChaosConfig& cfg,
                              const ChaosRunResult& run,
                              const FaultPlan& plan);
ReproBundle make_repro_bundle(const FleetConfig& cfg, const FleetResult& run,
                              const FaultPlan& plan);

// Writes `b` to its repro_bundle_path under `dir`. Per-seed filenames keep
// emission race-free under any --jobs count; a failed write is reported on
// stderr and never stops the campaign.
void emit_repro_bundle(const std::string& dir, const ReproBundle& b);

// What one run of a bundle observed: the part of a ChaosRunResult or a
// FleetResult that bundles record and replays compare.
struct BundleRun {
  RunOutcome outcome = RunOutcome::kOk;
  std::string hung_reason;
  std::vector<std::string> violations;
  std::string fingerprint;  // the run's one-line digest
};

// Runs the bundle's plan under its stored configuration through
// run_chaos_single or run_fleet, instrumented into `telemetry`. A run that
// throws reports kCrashed, exactly as a campaign would.
BundleRun run_repro_bundle(const ReproBundle& b, Telemetry& telemetry);

struct ReplayResult {
  BundleRun run;
  bool matches = false;  // outcome + violation strings bitwise identical
  std::vector<std::string> mismatches;  // human-readable diff when not
};

// Runs the bundle on a fresh Telemetry and compares against the bundle's
// expectations.
ReplayResult replay_repro_bundle(const ReproBundle& b);

}  // namespace mpdash
