#pragma once
// One end of an MPTCP connection.
//
// An endpoint owns a SubflowSender per path for its outgoing data, a
// connection-level send queue with data sequencing, and the receive-side
// reassembly + per-path throughput sampling. The client endpoint is also
// where the MP-DASH *decision function* attaches: its path-mask signal is
// piggybacked on every outgoing ACK (modeling the reserved DSS-option bit)
// and applied by the server endpoint's *enforcement* side when it
// schedules data packets.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mptcp/scheduler.h"
#include "mptcp/stream_buffer.h"
#include "mptcp/wire_data.h"
#include "predict/estimator.h"
#include "sim/event_loop.h"
#include "tcp/subflow.h"

namespace mpdash {

constexpr std::uint32_t kAllPathsMask = ~0u;

// Subflow-failure handling (paper §4.3: when a path silently dies, MP-DASH
// must fall back to the surviving subflows instead of stalling).
struct MptcpFailureConfig {
  // Consecutive RTOs before a subflow is declared dead. 0 disables
  // detection entirely (seed behavior).
  int max_consecutive_rtos = 0;
  // How long after death to re-admit the path with a fresh sender. The
  // probe data is real traffic: if the path is still dead it is re-killed
  // after another max_consecutive_rtos timeouts. Zero = never revive.
  Duration reprobe_interval = seconds(5.0);
};

class MptcpEndpoint {
 public:
  enum class Role { kClient, kServer };

  // In-order stream delivery: contiguous payload starting at the stream
  // offset the handler has already consumed implicitly.
  using ReceiveHandler = std::function<void(const WireData&)>;

  MptcpEndpoint(EventLoop& loop, Role role);
  ~MptcpEndpoint();

  MptcpEndpoint(const MptcpEndpoint&) = delete;
  MptcpEndpoint& operator=(const MptcpEndpoint&) = delete;

  // Registers a path. `transmit` sends a packet on this endpoint's
  // outgoing direction of that path. Paths must be added before traffic
  // flows; ids must be unique.
  void add_path(SubflowConfig config, std::function<void(Packet)> transmit);

  void set_scheduler(std::unique_ptr<MptcpScheduler> scheduler);
  MptcpScheduler& scheduler() { return *scheduler_; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }

  // Wires telemetry into every subflow sender (and paths added later).
  // Server subflows publish under `mptcp.subflow.{id}.*` and emit
  // kSubflowUpdate trace records (they carry the video data the paper's
  // plots track); client subflows publish under `mptcp.client.subflow.*`
  // without trace records. nullptr detaches.
  void set_telemetry(Telemetry* telemetry);

  // Appends application data to the outgoing stream. A nonzero `span`
  // stamps every segment with the owning request's span before queueing,
  // so interleaved pipelined transfers keep per-request attribution all
  // the way down to packets (StreamBuffer slices never merge segments).
  void send(WireData data, SpanId span = 0);

  // Network ingress: data packets feed reassembly (and are acked); ACK
  // packets feed the owning subflow sender and, on a server endpoint,
  // update the enforcement path mask.
  void on_packet(Packet p);

  // --- failure recovery -----------------------------------------------
  // Enables subflow-failure detection on every path (current and future):
  // K consecutive RTOs mark the subflow dead, its unacked connection-level
  // data is reinjected onto live subflows (original data_seq, so receiver
  // dedupe stays correct), and the path is periodically reprobed.
  void set_failure_policy(const MptcpFailureConfig& policy);
  bool path_dead(int path_id) const { return path_state(path_id).dead; }
  std::size_t subflow_failures() const { return subflow_failures_; }
  std::size_t subflow_revivals() const { return subflow_revivals_; }
  std::size_t reinjected_packets() const { return reinjected_packets_; }
  std::size_t reinject_backlog() const { return reinject_.size(); }

  // --- path control (MP-DASH overlay) ---------------------------------
  // Client side: records the decision and pushes it to the peer via bare
  // control ACKs on every path (plus piggybacked on subsequent acks).
  void signal_path_mask(std::uint32_t mask);
  // Directly sets the mask governing *this* endpoint's data scheduling
  // (tests; also what the server applies on signal receipt).
  void set_send_mask(std::uint32_t mask);
  std::uint32_t send_mask() const { return send_mask_; }

  // --- receive-side statistics ----------------------------------------
  Bytes delivered_payload_bytes(int path_id) const;
  Bytes delivered_payload_total() const;
  // Holt-Winters estimate of a path's goodput while sampled.
  DataRate path_throughput_estimate(int path_id) const;
  // Sum of per-path estimates: the "aggregated throughput" the MP-DASH
  // interface exposes to rate adaptation (§3.2).
  DataRate aggregate_throughput_estimate() const;

  // Gates throughput sampling: only while a tracked transfer is active do
  // idle intervals count as zero-throughput samples (between chunks the
  // network is idle by design and must not drag the estimate down).
  void set_sampling_active(bool active);

  // --- sender-side accessors ------------------------------------------
  SubflowSender& subflow(int path_id);
  const SubflowSender& subflow(int path_id) const;
  std::uint64_t bytes_received_in_order() const { return next_expected_; }
  // One past the highest connection-level byte ever scheduled onto a
  // subflow; with an empty backlog this equals total bytes sent.
  std::uint64_t data_seq_high() const { return next_data_seq_; }

  // Attempts to move queued data into subflows; invoked automatically on
  // sends/acks/mask changes, public for tests.
  void try_send();

 private:
  struct PathState {
    std::unique_ptr<SubflowSender> sender;
    std::function<void(Packet)> transmit;
    Bytes delivered_payload = 0;
    std::unique_ptr<RateSampler> sampler;
    bool sampler_started = false;
    bool dead = false;
    EventId reprobe_timer;
  };

  void handle_data(Packet p);
  void handle_ack(const Packet& p);
  void wire_failure_detection(int path_id, PathState& st);
  void on_subflow_failure(int path_id);
  void revive_path(int path_id);
  void send_ack(const Packet& data, int path_id);
  void deliver_in_order();
  void flush_samplers();
  void update_sampler_modes();
  void wire_sender_telemetry(PathState& st);
  PathState& path_state(int path_id);
  const PathState& path_state(int path_id) const;

  EventLoop& loop_;
  Role role_;
  std::unique_ptr<MptcpScheduler> scheduler_;
  ReceiveHandler on_receive_;
  Telemetry* telemetry_ = nullptr;
  Counter mask_changes_counter_;

  std::map<int, PathState> paths_;
  std::uint32_t send_mask_ = kAllPathsMask;
  std::uint32_t signal_mask_ = kAllPathsMask;
  std::uint64_t signal_version_ = 0;   // bumps on every local decision
  std::uint64_t applied_version_ = 0;  // newest remote decision applied

  // sender
  StreamBuffer send_buffer_;
  std::uint64_t next_data_seq_ = 0;
  bool in_try_send_ = false;
  std::vector<SubflowSnapshot> snapshots_;  // try_send's, reused per turn

  // failure recovery
  MptcpFailureConfig failure_policy_;  // inert until max_consecutive_rtos>0
  std::deque<UnackedData> reinject_;   // drained before new stream data
  std::size_t subflow_failures_ = 0;
  std::size_t subflow_revivals_ = 0;
  std::size_t reinjected_packets_ = 0;
  Counter subflow_failures_counter_;
  Counter reinjections_counter_;

  // receiver
  struct Arrival {
    std::uint64_t data_seq = 0;
    WireData payload;
  };
  std::uint64_t next_expected_ = 0;
  // Arrivals above next_expected_, ascending by data_seq, unique. The
  // storage is released whenever it empties: a fleet runs thousands of
  // endpoints, most of them in order at any moment.
  std::vector<Arrival> out_of_order_;

  bool sampling_active_ = false;
  EventId sampler_timer_;
  static constexpr Duration kSamplerInterval = milliseconds(100);
};

}  // namespace mpdash
