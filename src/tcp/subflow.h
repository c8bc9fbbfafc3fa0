#pragma once
// Per-path TCP sender: NewReno-style congestion control with selective
// acknowledgments, fast retransmit, and RTO recovery.
//
// Each MPTCP subflow runs one of these independently ("decoupled"
// congestion control, the configuration the paper uses for mobile
// multipath). The receiver side acks every data packet individually; loss
// shows up as acks arriving for later sequence numbers (3-dup rule) or as
// a retransmission timeout.

#include <cstdint>
#include <functional>
#include <vector>

#include "link/packet.h"
#include "sim/event_loop.h"

namespace mpdash {

struct SubflowConfig {
  int path_id = 0;
  double initial_cwnd = 10.0;   // packets (RFC 6928 IW10)
  double min_cwnd = 2.0;
  Duration initial_rtt = milliseconds(100);
  Duration min_rto = milliseconds(200);
  Duration max_rto = seconds(60.0);
  // Failure detection: after this many consecutive RTOs with no ack in
  // between, the subflow is declared dead and the failure handler fires
  // instead of another retransmission. 0 disables detection (seed
  // behavior: retransmit forever with capped backoff).
  int max_consecutive_rtos = 0;
};

// Connection-level payload stranded on a dead subflow, handed back so the
// MPTCP endpoint can reinject it on surviving paths.
struct UnackedData {
  std::uint64_t data_seq = 0;
  Bytes payload_len = 0;
  std::vector<SegmentRef> segments;
};

class SubflowSender {
 public:
  // `transmit` puts a packet on this subflow's wire (the path's link).
  // `on_capacity` is invoked whenever cwnd space (re)appears so the
  // connection can pump more data.
  SubflowSender(EventLoop& loop, SubflowConfig config,
                std::function<void(Packet)> transmit,
                std::function<void()> on_capacity);
  // The RTO event's callback holds `this`.
  ~SubflowSender();
  SubflowSender(const SubflowSender&) = delete;
  SubflowSender& operator=(const SubflowSender&) = delete;

  // True when a new data packet fits in the congestion window.
  bool can_send() const;

  // Sends payload [data_seq, data_seq + len) over this subflow.
  void send_data(std::uint64_t data_seq, Bytes len,
                 std::vector<SegmentRef> segments);

  // Processes an acknowledgment for this subflow.
  void on_ack(const Packet& ack);

  // Invoked (from inside the RTO handler) when max_consecutive_rtos fire
  // without an intervening ack. The handler owns the fallout: typically
  // take_unacked() + reinjection elsewhere.
  void set_failure_handler(std::function<void()> h) {
    on_failure_ = std::move(h);
  }
  void set_max_consecutive_rtos(int n) { config_.max_consecutive_rtos = n; }

  // Drains every outstanding packet (in subflow-send order), cancels the
  // RTO timer, and returns the stranded connection-level data. The sender
  // is left idle; pair with reset_for_reconnect() before reusing it.
  std::vector<UnackedData> take_unacked();

  // Fresh-start state for a revived path: initial window, cleared RTT
  // estimate and backoff. Subflow sequence numbers keep increasing so
  // stale acks from before the failure can never be confused with new
  // transmissions.
  void reset_for_reconnect();

  // Attaches telemetry under `{scope}.{path_id}.*` (cwnd/srtt gauges, RTT
  // histogram, retransmission counters). `emit_trace` additionally emits a
  // kSubflowUpdate record per cwnd/RTT change — enabled for the
  // data-sending (server) direction only, which is what the paper's
  // cross-layer tool plots. nullptr detaches.
  void set_telemetry(Telemetry* telemetry, const std::string& scope,
                     bool emit_trace);

  int path_id() const { return config_.path_id; }
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  Duration srtt() const { return srtt_; }
  Duration rto() const;
  std::size_t inflight_packets() const { return inflight_; }
  Bytes bytes_acked() const { return bytes_acked_; }
  std::size_t retransmissions() const { return retransmissions_; }
  std::size_t timeouts() const { return timeouts_; }
  int consecutive_timeouts() const { return consecutive_timeouts_; }

 private:
  struct SentPacket {
    std::uint64_t data_seq = 0;
    Bytes payload_len = 0;
    std::vector<SegmentRef> segments;
    TimePoint sent_at = kTimeZero;
    std::uint64_t span = 0;  // chunk span active at first transmission
    int sacked_above = 0;   // acks of later-sent packets, until resent
    bool retransmitted = false;  // cleared by an RTO
    bool resent = false;         // ever retransmitted: sent_at was reset
    bool live = false;           // sent and neither acked nor taken
  };

  void transmit_packet(std::uint64_t subflow_seq, const SentPacket& sp,
                       bool retransmit);
  void update_rtt(Duration sample);
  void publish_window_state();
  void enter_recovery(std::uint64_t trigger_seq);
  void detect_losses();
  void retransmit(std::uint64_t seq, SentPacket& sp);
  void arm_rto();
  void on_rto();

  // The in-flight window: packets [base_seq_, next_seq_) in a ring whose
  // size is a power of two at least that span, indexed by seq. Acked
  // slots die and pop from the front, so the front slot is live while
  // the window is not empty, and an empty window releases the ring.
  SentPacket& slot(std::uint64_t seq) {
    return window_[seq & (window_.size() - 1)];
  }
  void grow_window();
  void pop_dead_front();
  // First live packet never retransmitted, or next_seq_ if none.
  std::uint64_t first_original();

  EventLoop& loop_;
  SubflowConfig config_;
  std::function<void(Packet)> transmit_;
  std::function<void()> on_capacity_;
  std::function<void()> on_failure_;

  double cwnd_;
  double ssthresh_ = 1e9;
  std::uint64_t next_seq_ = 1;
  std::uint64_t recovery_until_ = 0;  // seqs below this don't re-halve cwnd
  std::vector<SentPacket> window_;
  std::uint64_t base_seq_ = 1;
  std::size_t inflight_ = 0;  // live slots
  // Packets never retransmitted keep their first sent_at, so they are in
  // send order by seq: below this seq every slot is dead or resent.
  std::uint64_t originals_from_ = 1;
  // Live resent packets, ascending.
  std::vector<std::uint64_t> resent_;

  TimePoint last_send_ = kTimeZero;
  Duration srtt_;
  Duration rttvar_;
  bool have_rtt_sample_ = false;
  int rto_backoff_ = 0;
  int consecutive_timeouts_ = 0;
  EventId rto_timer_;

  Bytes bytes_acked_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t timeouts_ = 0;

  Telemetry* telemetry_ = nullptr;
  bool emit_trace_ = false;
  Gauge cwnd_gauge_;
  Gauge srtt_gauge_;
  Histogram rtt_histogram_;
  Counter retransmissions_counter_;
  Counter timeouts_counter_;
};

}  // namespace mpdash
