#pragma once
// Fault model: what can go wrong, when, for how long.
//
// A FaultPlan is a list of timed fault events — the simulator's version of
// the hostile conditions MP-DASH met in the paper's field study (§6):
// walking out of AP range (blackout), fringe-of-coverage flapping, bursty
// interference, congestion-driven rate collapse, and misbehaving origin
// servers. Plans are either scripted (tests, demos) or generated from a
// seed (chaos campaigns), and are executed by the FaultInjector.

#include <cstdint>
#include <string>
#include <vector>

#include "link/loss.h"
#include "util/units.h"

namespace mpdash {

enum class FaultKind : std::uint8_t {
  kBlackout,      // both links of a path down for `duration` (path death;
                  // revival happens when the window ends)
  kFlap,          // down/up cycling: down phases of `value` seconds
                  // alternate with equal up phases across the window
  kLossBurst,     // Gilbert–Elliott loss on the path's downlink
  kRttSpike,      // `value` ms of extra one-way delay on the downlink
  kRateCollapse,  // downlink rate scaled by factor `value`
  kServerStall,   // origin holds finished responses for the window
  kServerReset,   // origin discards requests for the window (connection
                  // reset as seen by the client: silence)
};

const char* to_string(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kBlackout;
  TimePoint at = kTimeZero;   // start
  Duration duration = kDurationZero;
  int path_id = 0;            // target path; ignored for server faults
  double value = 0.0;         // kind-specific parameter (see FaultKind)
  GilbertElliottConfig ge{};  // kLossBurst parameters

  TimePoint end() const { return at + duration; }
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }
  // Latest fault end; kTimeZero for an empty plan.
  TimePoint last_end() const;
};

// One-line human-readable description (chaos-campaign logs).
std::string describe(const FaultEvent& e);

struct RandomPlanConfig {
  // Every generated fault starts after `start_margin` and ends before
  // `horizon - end_margin`, so a session given enough wall-clock room can
  // always finish cleanly after the last fault lifts.
  Duration horizon = seconds(120.0);
  Duration start_margin = seconds(5.0);
  Duration end_margin = seconds(20.0);
  int num_events = 4;
};

// Deterministic: the same (seed, config) always yields the same plan. Each
// event draws any kind, the server kinds included, on path 0 or 1.
FaultPlan random_fault_plan(std::uint64_t seed, const RandomPlanConfig& cfg);

}  // namespace mpdash
