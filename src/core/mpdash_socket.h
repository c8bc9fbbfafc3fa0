#pragma once
// The application-facing MP-DASH interface (paper §3.2): a socket-option
// style API on the client side of an MPTCP connection.
//
//   socket.enable(S, D);   // MP_DASH_ENABLE: next S bytes due within D
//   ...issue the HTTP request...
//   socket.disable();      // MP_DASH_DISABLE (optional; auto on S or D)
//
// plus the query half of the interface: aggregate_throughput(), which
// gives rate adaptation a consistent view of capacity across all paths
// even while MP-DASH has the costly path disabled.
//
// Internally this is the *decision function* of the split scheduler: it
// runs Algorithm 1 on a timer and ships path enable/disable decisions to
// the server's *enforcement function* via the DSS-option bit that the
// endpoint piggybacks on every ack.

#include <memory>

#include "core/deadline_scheduler.h"
#include "mptcp/connection.h"
#include "sim/event_loop.h"

namespace mpdash {

struct MpDashSocketConfig {
  DeadlineSchedulerConfig scheduler;
  // Decision-function cadence (the paper re-evaluates per packet in the
  // kernel; 50 ms ~ one metro-WiFi RTT is equivalent at chunk granularity).
  Duration check_interval = milliseconds(50);
};

class MpDashSocket : public MultipathControl {
 public:
  MpDashSocket(EventLoop& loop, MptcpConnection& conn,
               MpDashSocketConfig config = {});
  ~MpDashSocket() override;

  MpDashSocket(const MpDashSocket&) = delete;
  MpDashSocket& operator=(const MpDashSocket&) = delete;

  // MP_DASH_ENABLE: activates the scheduler for the next `size` bytes with
  // deadline window `window`. `span` tags the owning chunk span onto
  // every scheduler decision record (0 = ambient stamping).
  void enable(Bytes size, Duration window, SpanId span = 0);
  // MP_DASH_DISABLE.
  void disable();

  bool active() const { return scheduler_.active(); }
  int deadline_misses() const { return deadline_misses_; }

  // Aggregated throughput estimate across all paths (enabled or not) for
  // rate adaptation (§3.2, second part of the interface).
  DataRate aggregate_throughput() const;

  // --- MultipathControl (exposed for the scheduler and for tests) ------
  std::vector<ControlledPath> paths() const override;
  void set_path_enabled(int path_id, bool enabled) override;
  bool path_enabled(int path_id) const override;
  Bytes transferred_bytes() const override;
  DataRate path_throughput(int path_id) const override;

  DeadlineScheduler& scheduler() { return scheduler_; }

  // Forwards telemetry to the deadline scheduler (the connection is wired
  // separately by its owner). nullptr detaches.
  void set_telemetry(Telemetry* telemetry) {
    scheduler_.set_telemetry(telemetry);
  }

 private:
  void tick();
  void stop_timer();

  EventLoop& loop_;
  MptcpConnection& conn_;
  MpDashSocketConfig config_;
  DeadlineScheduler scheduler_;
  std::uint32_t mask_;
  EventId timer_;
  int deadline_misses_ = 0;
};

}  // namespace mpdash
