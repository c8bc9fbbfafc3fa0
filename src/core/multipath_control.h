#pragma once
// Abstraction the deadline scheduler drives.
//
// Keeping Algorithm 1 behind this narrow interface means it can run
// against the real MPTCP client endpoint (src/core/mpdash_socket.h), the
// trace-driven simulator (src/core/online_simulator.h, which bench_tab2
// and bench_ablation run), or test mocks, unchanged.

#include <vector>

#include "util/units.h"

namespace mpdash {

struct ControlledPath {
  int id = 0;
  // Unit-data cost c(i) from the paper's formulation. The scheduler feeds
  // data cheapest-first; strictly cheapest path(s) stay always-on.
  double unit_cost = 0.0;
};

class MultipathControl {
 public:
  virtual ~MultipathControl() = default;

  // Paths in no particular order; stable across the object's lifetime.
  virtual std::vector<ControlledPath> paths() const = 0;

  virtual void set_path_enabled(int path_id, bool enabled) = 0;
  virtual bool path_enabled(int path_id) const = 0;

  // Bytes of the tracked object transferred so far ("sentBytes").
  virtual Bytes transferred_bytes() const = 0;

  // Current throughput estimate of a path (Holt-Winters at the client).
  virtual DataRate path_throughput(int path_id) const = 0;
};

}  // namespace mpdash
