#pragma once
// Delta-debugging fault-plan minimizer (`mpdash_sim shrink <bundle>`).
//
// Given a repro bundle — one chaos session or one fleet — whose plan
// provokes a violation or hang, ddmin over the plan's events finds a
// 1-minimal subset that still provokes the *same class* of failure, then
// attribute ladders shrink what's left: event durations halve toward a
// floor, fault magnitudes step toward benign, and the run horizon (the
// session's or the fleet's time limit) halves toward a floor.
//
// Oracle contract: a candidate is "interesting" iff running it through
// run_repro_bundle — the deterministic campaign code path — yields the
// same violation signature as the original bundle. The signature is the
// outcome plus the canonical *kinds* of the violations (sorted, unique),
// so a shrunk plan that trips the same invariants with different counts,
// or on a different fleet tenant, still qualifies; `strict` tightens this
// to the exact violation strings. Candidate batches run through the
// parallel campaign runner, and the accepted candidate is always the
// first interesting one in batch order, so the minimized bundle and the
// shrink log are bitwise identical for any --jobs count.

#include <cstdio>
#include <string>
#include <vector>

#include "exp/repro.h"

namespace mpdash {

struct ShrinkConfig {
  int jobs = 1;          // candidate-batch parallelism (ddmin rounds)
  bool strict = false;   // match exact violation strings, not kinds
  std::FILE* progress = nullptr;  // live step mirror; log is always kept
};

struct ShrinkResult {
  ReproBundle minimized;    // expectations rewritten to the minimized run
  bool reproduced = false;  // baseline replay provoked a failure at all
  int initial_events = 0;
  int final_events = 0;
  int sim_runs = 0;  // every oracle invocation, baseline included
  int steps = 0;     // ddmin rounds + accepted ladder steps
  std::string log;   // deterministic, newline-terminated step log
};

// Canonical class of one violation string (prefix/substring matching to
// a stable key, e.g. "chunk accounting: delivered 3 + abandoned 1 != 6"
// → "chunk accounting"). A fleet tenant's "session <i>: " prefix is
// dropped first. Unrecognized strings map to themselves, unprefixed.
std::string violation_kind(const std::string& violation);

// Outcome + sorted unique violation kinds (or exact strings when
// `strict`), joined with '|'. Two runs with equal signatures fail the
// same way for the oracle's purposes.
std::string violation_signature(RunOutcome outcome,
                                const std::vector<std::string>& violations,
                                bool strict);

ShrinkResult shrink_repro_bundle(const ReproBundle& bundle,
                                 const ShrinkConfig& cfg);

}  // namespace mpdash
