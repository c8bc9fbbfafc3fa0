#pragma once
// One-way link with a time-varying rate, propagation delay, and a drop-tail
// queue — the simulator's equivalent of a shaped WiFi or LTE hop.
//
// Besides the static configuration, a link exposes a dynamic impairment
// surface (down/up, rate scaling, extra latency, loss-model swaps) that the
// fault-injection layer (src/fault) drives at scheduled times to reproduce
// the hostile conditions of the paper's field study: AP blackouts, bursty
// interference, and abrupt capacity collapse.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "link/loss.h"
#include "link/packet.h"
#include "sim/event_loop.h"
#include "trace/bandwidth_trace.h"
#include "util/rng.h"

namespace mpdash {

// How the link arbitrates between flows sharing its queue. kFifo is the
// single-tenant default (one drop-tail queue, arrival order); kFairQueue is
// deficit-round-robin over per-flow queues with longest-queue drop, so one
// aggressive tenant can neither starve the serializer nor steal the whole
// buffer.
enum class QueueDiscipline : std::uint8_t {
  kFifo = 0,
  kFairQueue = 1,
};

inline const char* to_string(QueueDiscipline d) {
  return d == QueueDiscipline::kFairQueue ? "fq" : "fifo";
}

struct LinkConfig {
  int id = 0;
  std::string name;                          // metric key; "link{id}" if empty
  BandwidthTrace rate;                       // serialization capacity
  Duration propagation_delay = milliseconds(25);  // one-way
  Bytes queue_capacity = 192 * 1000;         // drop-tail buffer
  double random_loss = 0.0;                  // extra i.i.d. loss probability
  // Bursty-loss channel (Gilbert–Elliott); composes with random_loss.
  std::optional<GilbertElliottConfig> ge_loss;
  // Seed of the link's private loss stream. Every link owns its own Rng so
  // loss on one link can never perturb another's draws (the seed tests
  // shared one RNG across links, coupling their loss patterns).
  std::uint64_t loss_seed = 0;
  // Multi-tenant arbitration (fleet workloads). kFifo preserves the
  // single-tenant behavior bit-for-bit.
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  // DRR quantum: bytes a flow earns each time it reaches the head of the
  // active ring. >= one MTU gives packet-by-packet round robin.
  Bytes fq_quantum = 1500;
};

class Qdisc;  // the queue behind the radio (link.cpp)

class Link {
 public:
  using DeliverHandler = std::function<void(Packet)>;

  Link(EventLoop& loop, LinkConfig config);
  ~Link();

  // Offers a packet to the link. Queue overflow (or random loss) silently
  // drops it, exactly as a real bottleneck would — senders learn via
  // missing ACKs.
  void send(Packet p);

  void set_deliver_handler(DeliverHandler h) { deliver_ = std::move(h); }
  // Per-flow delivery demux for shared links: packets stamped with `flow`
  // route to their flow's handler; flows without one fall back to the
  // default handler. Flow ids are small non-negative ints.
  void set_flow_deliver(int flow, DeliverHandler h);
  // Test hook: overrides the link's own loss stream with an external
  // uniform-draw source (used to script exact drop positions).
  void set_loss_rng(std::function<double()> uniform) {
    loss_rng_ = std::move(uniform);
  }

  // --- dynamic impairments (fault-injection surface) -------------------
  // While down, every packet offered or finishing serialization is lost;
  // packets already propagating still arrive (they are past the radio).
  void set_down(bool down);
  bool is_down() const { return down_; }
  // Scales the instantaneous trace rate by `factor` (rate collapse /
  // recovery). Applies to serializations started after the call.
  void set_rate_factor(double factor);
  double rate_factor() const { return rate_factor_; }
  // Extra one-way latency added on top of the propagation delay (RTT
  // spike). Applies to deliveries scheduled after the call.
  void set_extra_delay(Duration extra) { extra_delay_ = extra; }
  Duration extra_delay() const { return extra_delay_; }
  double random_loss() const { return config_.random_loss; }
  // Installs/clears the Gilbert–Elliott burst model at runtime. The chain
  // restarts in the Good state.
  void set_ge_loss(const std::optional<GilbertElliottConfig>& ge);

  // Attaches telemetry: packet send/deliver/drop trace records plus
  // `link.{name}.*` queue/delivery metrics. Pass nullptr to detach.
  void set_telemetry(Telemetry* telemetry);

  int id() const { return config_.id; }
  const std::string& name() const { return config_.name; }
  Duration propagation_delay() const { return config_.propagation_delay; }

  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes delivered_bytes() const { return delivered_bytes_; }
  Bytes dropped_bytes() const { return dropped_bytes_; }
  std::size_t delivered_packets() const { return delivered_packets_; }
  std::size_t dropped_packets() const { return dropped_packets_; }
  // Per-flow wire-byte attribution, by the flow stamped on each packet.
  Bytes delivered_bytes_for_flow(int flow) const;
  Bytes dropped_bytes_for_flow(int flow) const;

 private:
  void start_serializing();
  void on_serialized();
  // Hands the propagating packet in in-flight slot `slot` to its receiver.
  void deliver(std::uint32_t slot);
  void drop_packet(const Packet& p);
  bool loss_model_drops();
  double draw_uniform();
  void emit_packet(TraceType type, const Packet& p) const;
  bool has_backlog() const;

  EventLoop& loop_;
  LinkConfig config_;
  DeliverHandler deliver_;
  std::function<double()> loss_rng_;  // optional test override
  Rng rng_;
  std::optional<GilbertElliottLoss> ge_;

  std::unique_ptr<Qdisc> queue_;
  // The packet on the radio. It has left queue_ but still counts toward
  // queued_bytes_ (it occupies the buffer until it leaves the radio).
  std::optional<Packet> serializing_;
  // Packets past the radio, propagating to the far end: a slab reused
  // through a free list, so each delivery event captures only `this` and
  // a slot index and fits std::function's small buffer.
  std::vector<Packet> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  // Per-flow state, indexed by flow id. The handler vector grows only in
  // set_flow_deliver, never while delivering, so a running handler is
  // never moved.
  std::vector<DeliverHandler> flow_deliver_;
  std::vector<Bytes> flow_delivered_;
  std::vector<Bytes> flow_dropped_;

  Bytes queued_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  double rate_factor_ = 1.0;
  Duration extra_delay_ = kDurationZero;

  Bytes delivered_bytes_ = 0;
  Bytes dropped_bytes_ = 0;
  std::size_t delivered_packets_ = 0;
  std::size_t dropped_packets_ = 0;

  Telemetry* telemetry_ = nullptr;
  Gauge queue_gauge_;
  Counter delivered_bytes_counter_;
  Counter delivered_packets_counter_;
  Counter dropped_packets_counter_;
};

}  // namespace mpdash
