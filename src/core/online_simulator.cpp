#include "core/online_simulator.h"

namespace mpdash {

namespace {

// The two traces as Algorithm 1 sees them: path 0 is preferred (cost 0)
// and always on, path 1 is costly (cost 1) and carries a slot's bytes
// exactly when enabled; progress is what the slots have delivered, and
// the preferred path's throughput is the estimator's prediction.
struct TwoTraceControl final : MultipathControl {
  explicit TwoTraceControl(const ThroughputEstimator& e) : estimator(e) {}

  std::vector<ControlledPath> paths() const override {
    return {{0, 0.0}, {1, 1.0}};
  }
  void set_path_enabled(int path_id, bool enabled) override {
    if (path_id == 1) costly_enabled = enabled;
  }
  bool path_enabled(int path_id) const override {
    return path_id == 0 || costly_enabled;
  }
  Bytes transferred_bytes() const override { return sent; }
  // The costly path's rate would only size a third, costlier path.
  DataRate path_throughput(int path_id) const override {
    return path_id == 0 ? estimator.predict() : DataRate();
  }

  const ThroughputEstimator& estimator;
  bool costly_enabled = false;
  Bytes sent = 0;
};

}  // namespace

OnlineSimResult simulate_online_two_path(
    const BandwidthTrace& preferred, const BandwidthTrace& costly,
    Bytes target, Duration deadline, const OnlineSimConfig& config,
    std::unique_ptr<ThroughputEstimator> estimator) {
  TwoTraceControl control(*estimator);
  DeadlineScheduler scheduler(control, config.scheduler);
  scheduler.begin(kTimeZero, target, deadline);  // Algorithm 1 line 3

  OnlineSimResult res;
  TimePoint t = kTimeZero;
  // Hard stop far past any sane deadline (zero-rate tails).
  const TimePoint hard_stop = TimePoint(deadline) + seconds(3600.0);

  while (control.sent < target && t < hard_stop) {
    const TimePoint next = t + config.slot;
    const bool costly_enabled = control.costly_enabled;

    // Deliver this slot's bytes on the enabled paths.
    const Bytes pref_b = preferred.bytes_between(t, next);
    const Bytes cost_b = costly_enabled ? costly.bytes_between(t, next) : 0;
    control.sent += pref_b + cost_b;
    res.preferred_bytes += pref_b;
    res.costly_bytes += cost_b;

    // Observe the preferred path's throughput (line 15).
    estimator->add_sample(rate_of(pref_b, config.slot));
    res.timeline.push_back(
        {t, costly_enabled, pref_b, cost_b, estimator->predict()});

    // Lines 16-21 at the slot boundary. Once the transfer is done or the
    // deadline has passed the scheduler deactivates, leaving both paths
    // on until the transfer drains.
    t = next;
    scheduler.update(t);
  }

  res.finish_time = Duration(t);
  res.deadline_missed = Duration(t) > deadline;
  if (res.deadline_missed) res.miss_by = Duration(t) - deadline;
  res.costly_fraction =
      static_cast<double>(res.costly_bytes) / static_cast<double>(target);
  return res;
}

}  // namespace mpdash
