#include "fault/fault.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace mpdash {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kLossBurst: return "loss_burst";
    case FaultKind::kRttSpike: return "rtt_spike";
    case FaultKind::kRateCollapse: return "rate_collapse";
    case FaultKind::kServerStall: return "server_stall";
    case FaultKind::kServerReset: return "server_reset";
  }
  return "unknown";
}

TimePoint FaultPlan::last_end() const {
  TimePoint latest = kTimeZero;
  for (const FaultEvent& e : events) latest = std::max(latest, e.end());
  return latest;
}

std::string describe(const FaultEvent& e) {
  char buf[160];
  const bool server = e.kind == FaultKind::kServerStall ||
                      e.kind == FaultKind::kServerReset;
  if (server) {
    std::snprintf(buf, sizeof buf, "%s at=%.2fs dur=%.2fs", to_string(e.kind),
                  to_seconds(e.at), to_seconds(e.duration));
  } else {
    std::snprintf(buf, sizeof buf, "%s path=%d at=%.2fs dur=%.2fs value=%g",
                  to_string(e.kind), e.path_id, to_seconds(e.at),
                  to_seconds(e.duration), e.value);
  }
  return buf;
}

FaultPlan random_fault_plan(std::uint64_t seed, const RandomPlanConfig& cfg) {
  FaultPlan plan;
  const double lo = to_seconds(cfg.start_margin);
  const double hi = to_seconds(cfg.horizon) - to_seconds(cfg.end_margin);
  if (cfg.num_events <= 0 || hi - lo < 2.0) return plan;

  constexpr int kKinds = 7;  // every FaultKind
  constexpr int kPaths = 2;
  Rng rng(derive_stream_seed(seed, "fault-plan"));
  for (int i = 0; i < cfg.num_events; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.uniform_int(0, kKinds - 1));
    const double start = rng.uniform(lo, hi - 1.0);
    const double max_dur =
        std::min(hi - start, 0.25 * to_seconds(cfg.horizon));
    e.at = kTimeZero + seconds(start);
    // Draw within [min(1, max_dur), max_dur] so the end-margin and the
    // 0.25*horizon cap hold by construction, with no post-hoc clipping.
    e.duration = seconds(rng.uniform(std::min(1.0, max_dur), max_dur));
    e.path_id = static_cast<int>(rng.uniform_int(0, kPaths - 1));
    switch (e.kind) {
      case FaultKind::kFlap:
        e.value = rng.uniform(0.5, 2.5);  // down-phase length, seconds
        break;
      case FaultKind::kRttSpike:
        e.value = rng.uniform(100.0, 800.0);  // extra one-way delay, ms
        break;
      case FaultKind::kRateCollapse:
        e.value = rng.uniform(0.02, 0.3);  // rate factor
        break;
      case FaultKind::kLossBurst:
        e.ge.p_good_to_bad = rng.uniform(0.005, 0.05);
        e.ge.p_bad_to_good = rng.uniform(0.05, 0.3);
        e.ge.loss_good = 0.0;
        e.ge.loss_bad = rng.uniform(0.6, 0.95);
        break;
      default:
        break;
    }
    plan.events.push_back(e);
  }
  // Chronological order; stable so equal start times keep generation order
  // and the plan stays a pure function of (seed, config).
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace mpdash
