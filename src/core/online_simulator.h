#pragma once
// Discrete-time simulator of Algorithm 1 with Holt-Winters prediction —
// the methodology of the paper's §7.2.2 trace-driven study (Table 2).
//
// Unlike the packet-level stack, this simulator advances in fixed slots
// (one RTT each), delivers exactly the trace's bytes on every enabled
// path, and lets us compare the online algorithm against the
// perfect-knowledge optimum on identical inputs. Its enable/disable
// decisions are the shipped DeadlineScheduler's, driven over the two
// traces, so the packet-level runs and this study run one Algorithm 1.

#include <memory>
#include <vector>

#include "core/deadline_scheduler.h"
#include "predict/holt_winters.h"
#include "trace/bandwidth_trace.h"

namespace mpdash {

struct OnlineSimConfig {
  // Alpha, hysteresis and enable debounce, with the packet-level
  // defaults. Set hysteresis/debounce to 0/1 for the literal Algorithm 1.
  DeadlineSchedulerConfig scheduler;
  Duration slot = milliseconds(50);  // paper: slot length = RTT
};

struct OnlineSimSlot {
  TimePoint start;
  bool costly_enabled = false;
  Bytes preferred_bytes = 0;
  Bytes costly_bytes = 0;
  DataRate predicted_preferred;
};

struct OnlineSimResult {
  bool deadline_missed = false;
  Duration miss_by = kDurationZero;  // how late the transfer finished
  Duration finish_time = kDurationZero;
  Bytes preferred_bytes = 0;
  Bytes costly_bytes = 0;
  double costly_fraction = 0.0;  // costly bytes / S
  std::vector<OnlineSimSlot> timeline;
};

// Runs Algorithm 1 for an S-byte transfer due at `deadline` over two
// paths. The costly path starts disabled; after a missed deadline both
// paths run until completion (matching the paper's deactivation rule).
// `estimator` predicts the preferred path's throughput from each slot's
// delivery. Throws std::invalid_argument on a non-positive target or
// deadline and on a config DeadlineScheduler rejects.
OnlineSimResult simulate_online_two_path(
    const BandwidthTrace& preferred, const BandwidthTrace& costly,
    Bytes target, Duration deadline, const OnlineSimConfig& config = {},
    std::unique_ptr<ThroughputEstimator> estimator =
        std::make_unique<HoltWinters>());

}  // namespace mpdash
