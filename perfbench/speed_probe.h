#pragma once
// Machine-speed probe. On a shared machine the speed of one core swings by
// tens of percent within a second as other tenants' load on the same
// physical cores comes and goes, so a pass timed end to end, or scaled by
// a speed measured only between passes or between the runs of a pass,
// moves with the machine more than with the code. While a pass runs, a
// POSIX timer interrupts the thread that runs it every kPeriodS, and the
// signal handler times a short fixed kernel that uses no repository code:
// a cache-resident event loop and random updates of a table larger than
// the core's own caches, combined as the geometric mean of their times.
// The pass is reported at a reference speed stretch by stretch: the work
// between two samples is scaled by the median kernel time of the four
// samples around it. Time spent in the handler is not part of the pass.
//
// One SpeedProbe at a time may exist in a process, and it must be used
// from the thread that created it: the timer signals that thread.

#include <vector>

namespace perfbench {

struct PassTime {
  double raw_s = 0.0;     // wall time of the pass's work, probes excluded
  double scaled_s = 0.0;  // the same work at the reference speed
};

class SpeedProbe {
 public:
  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Probes, starts timing a pass and arms the sampling timer.
  void begin_pass();
  // Disarms the timer, probes, and returns the pass's times.
  PassTime end_pass();

  // Reference speed / machine speed over every sample so far (the median
  // kernel time): the factor that takes a raw time to the reference speed.
  double speed() const;

  static constexpr double kPeriodS = 0.05;
  // Resident memory of the probe's own table, from construction on.
  static constexpr double kTableMb = 8.0;

 private:
  std::vector<double> kernel_s_;  // every kernel time so far
};

}  // namespace perfbench
