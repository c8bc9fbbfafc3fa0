#include "link/link.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <utility>

namespace mpdash {

// The queue behind a link's radio. The link keeps the buffer's byte count
// and capacity; its queue decides the service order and, when the buffer
// is full, what to shed. LinkConfig::discipline picks the class once, when
// the link is built.
class Qdisc {
 public:
  // Takes every queued packet the queue sheds (overflow victims, link
  // down): the link releases its buffer bytes and counts the drop.
  using Shed = std::function<void(const Packet&)>;

  explicit Qdisc(Shed shed) : shed_(std::move(shed)) {}
  Qdisc(const Qdisc&) = delete;
  Qdisc& operator=(const Qdisc&) = delete;
  virtual ~Qdisc() = default;

  // Offers `p`, which would put the buffer `over` bytes past capacity
  // (over <= 0: it fits). Returns true once `p` is queued, having shed at
  // least `over` bytes first; false, leaving `p` untouched, when `p`
  // itself is the drop.
  virtual bool enqueue(Packet& p, Bytes over) = 0;
  // Removes the next packet to serialize. Requires !empty().
  virtual Packet dequeue() = 0;
  virtual bool empty() const = 0;
  // Sheds every queued packet, in the discipline's deterministic order.
  virtual void drop_all() = 0;

 protected:
  Shed shed_;
};

namespace {

// Drop-tail: one queue in arrival order; a full buffer drops the arrival.
// A power-of-two ring that keeps its storage while empty: an ACK link
// drains to empty after nearly every packet, so a queue that freed it
// would allocate once per ACK.
class FifoQueue final : public Qdisc {
 public:
  using Qdisc::Qdisc;

  bool enqueue(Packet& p, Bytes over) override {
    if (over > 0) return false;
    if (size_ == ring_.size()) grow();
    at(size_) = std::move(p);
    ++size_;
    return true;
  }

  Packet dequeue() override {
    Packet p = std::move(at(0));
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return p;
  }

  bool empty() const override { return size_ == 0; }

  // Tail first.
  void drop_all() override {
    for (; size_ > 0; --size_) {
      const Packet p = std::move(at(size_ - 1));
      shed_(p);
    }
  }

 private:
  // The i-th packet from the head.
  Packet& at(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  void grow() {
    std::vector<Packet> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(at(i));
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Packet> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

// Deficit round-robin over per-flow queues with longest-queue drop.
class DrrQueue final : public Qdisc {
 public:
  DrrQueue(Bytes quantum, Shed shed)
      : Qdisc(std::move(shed)), quantum_(std::max<Bytes>(quantum, 1)) {}

  bool enqueue(Packet& p, Bytes over) override {
    // Longest-queue drop: when the shared buffer is full, the flow holding
    // the most bytes pays, so one aggressive tenant cannot squeeze the rest
    // out of the buffer. If the arriving flow already holds the largest
    // share (or the buffer cannot fit the packet at all), the arrival is
    // the drop.
    while (over > 0) {
      const int flow = victim();
      if (flow < 0 ||
          queued_bytes_for_flow(flow) <= queued_bytes_for_flow(p.flow)) {
        return false;
      }
      auto& q = flow_queues_[flow];
      Packet shed = std::move(q.back());
      q.pop_back();
      over -= shed.wire_size;
      flow_queued_[flow] -= shed.wire_size;
      if (q.empty()) deactivate(flow);
      shed_(shed);
    }
    flow_queued_[p.flow] += p.wire_size;
    auto& q = flow_queues_[p.flow];
    if (q.empty()) {
      active_flows_.push_back(p.flow);
      flow_deficit_[p.flow] = 0;
    }
    q.push_back(std::move(p));
    return true;
  }

  Packet dequeue() override {
    // Each time a flow reaches the head of the active ring it earns one
    // quantum; it sends while its deficit covers the head packet, then
    // rotates to the back keeping the remainder. The credit is per *visit*
    // (`credited_flow_`), never re-added while the flow holds the head —
    // otherwise a backlogged flow with packets smaller than the quantum
    // would top up forever and drain completely before rotating,
    // collapsing DRR into per-burst FIFO. A drained flow forfeits its
    // deficit.
    for (;;) {
      assert(!active_flows_.empty());
      const int flow = active_flows_.front();
      auto& q = flow_queues_[flow];
      assert(!q.empty());
      if (credited_flow_ != flow) {
        flow_deficit_[flow] += quantum_;
        credited_flow_ = flow;
      }
      if (flow_deficit_[flow] < q.front().wire_size) {
        // Out of credit this round; the next visit earns a fresh quantum
        // (clearing the marker also lets a lone flow re-credit until it can
        // afford a packet larger than one quantum).
        active_flows_.pop_front();
        active_flows_.push_back(flow);
        credited_flow_ = -1;
        continue;
      }
      Packet p = std::move(q.front());
      q.pop_front();
      flow_deficit_[flow] -= p.wire_size;
      flow_queued_[flow] -= p.wire_size;
      if (q.empty()) deactivate(flow);
      return p;
    }
  }

  bool empty() const override { return active_flows_.empty(); }

  // Flows ascending, each front to back.
  void drop_all() override {
    for (auto& [flow, q] : flow_queues_) {
      for (const Packet& p : q) shed_(p);
    }
    flow_queues_.clear();
    flow_queued_.clear();
    flow_deficit_.clear();
    active_flows_.clear();
  }

 private:
  Bytes queued_bytes_for_flow(int flow) const {
    auto it = flow_queued_.find(flow);
    return it == flow_queued_.end() ? 0 : it->second;
  }

  int victim() const {
    // Flow with the most queued bytes; ties break toward the lowest id so
    // the choice is deterministic.
    int victim = -1;
    Bytes most = 0;
    for (const auto& [flow, bytes] : flow_queued_) {
      if (bytes > most) {
        most = bytes;
        victim = flow;
      }
    }
    return victim;
  }

  void deactivate(int flow) {
    flow_queues_.erase(flow);
    flow_queued_.erase(flow);
    flow_deficit_.erase(flow);
    if (credited_flow_ == flow) credited_flow_ = -1;
    for (auto it = active_flows_.begin(); it != active_flows_.end(); ++it) {
      if (*it == flow) {
        active_flows_.erase(it);
        break;
      }
    }
  }

  Bytes quantum_;
  // Per-flow backlogs, DRR deficits, and the active ring. A flow appears
  // in every map iff its queue is non-empty; the packet the link is
  // serializing has left its flow's queue.
  std::map<int, std::deque<Packet>> flow_queues_;
  std::map<int, Bytes> flow_queued_;
  std::map<int, Bytes> flow_deficit_;
  std::deque<int> active_flows_;
  int credited_flow_ = -1;  // front flow already credited this visit
};

void add_flow_bytes(std::vector<Bytes>& per_flow, int flow, Bytes bytes) {
  const auto i = static_cast<std::size_t>(flow);
  if (i >= per_flow.size()) per_flow.resize(i + 1, 0);
  per_flow[i] += bytes;
}

Bytes flow_bytes(const std::vector<Bytes>& per_flow, int flow) {
  const auto i = static_cast<std::size_t>(flow);
  return i < per_flow.size() ? per_flow[i] : 0;
}

}  // namespace

Link::Link(EventLoop& loop, LinkConfig config)
    : loop_(loop), config_(std::move(config)), rng_(config_.loss_seed) {
  if (config_.name.empty()) {
    config_.name = "link" + std::to_string(config_.id);
  }
  if (config_.ge_loss) ge_.emplace(*config_.ge_loss);
  Qdisc::Shed shed = [this](const Packet& p) {
    queued_bytes_ -= p.wire_size;
    drop_packet(p);
  };
  if (config_.discipline == QueueDiscipline::kFairQueue) {
    queue_ = std::make_unique<DrrQueue>(config_.fq_quantum, std::move(shed));
  } else {
    queue_ = std::make_unique<FifoQueue>(std::move(shed));
  }
}

Link::~Link() = default;

void Link::set_flow_deliver(int flow, DeliverHandler h) {
  assert(flow >= 0);
  const auto i = static_cast<std::size_t>(flow);
  if (i >= flow_deliver_.size()) flow_deliver_.resize(i + 1);
  flow_deliver_[i] = std::move(h);
}

Bytes Link::delivered_bytes_for_flow(int flow) const {
  return flow_bytes(flow_delivered_, flow);
}

Bytes Link::dropped_bytes_for_flow(int flow) const {
  return flow_bytes(flow_dropped_, flow);
}

void Link::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    queue_gauge_ = Gauge{};
    delivered_bytes_counter_ = Counter{};
    delivered_packets_counter_ = Counter{};
    dropped_packets_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  const std::string prefix = "link." + config_.name;
  queue_gauge_ = m.gauge(prefix + ".queue_bytes");
  delivered_bytes_counter_ = m.counter(prefix + ".delivered_bytes");
  delivered_packets_counter_ = m.counter(prefix + ".delivered_packets");
  dropped_packets_counter_ = m.counter(prefix + ".dropped_packets");
}

void Link::emit_packet(TraceType type, const Packet& p) const {
  TraceRecord r;
  r.at = loop_.now();
  r.type = type;
  r.span = p.span;
  r.path_id = p.path_id;
  r.link_id = config_.id;
  r.kind = p.kind;
  r.wire_size = p.wire_size;
  r.payload_len = p.payload_len;
  r.data_seq = p.data_seq;
  r.retransmit = p.is_retransmit;
  r.payload = &p.segments;
  telemetry_->emit(r);
}

void Link::drop_packet(const Packet& p) {
  dropped_bytes_ += p.wire_size;
  ++dropped_packets_;
  add_flow_bytes(flow_dropped_, p.flow, p.wire_size);
  if (telemetry_) {
    dropped_packets_counter_.increment();
    if (telemetry_->tracing()) emit_packet(TraceType::kPacketDrop, p);
  }
}

double Link::draw_uniform() {
  return loss_rng_ ? loss_rng_() : rng_.uniform();
}

bool Link::loss_model_drops() {
  // Fixed draw order (i.i.d. first, then the GE pair) so a given seed maps
  // to one loss pattern regardless of which models are active elsewhere.
  bool drop = false;
  if (config_.random_loss > 0.0 && draw_uniform() < config_.random_loss) {
    drop = true;
  }
  if (ge_) {
    const double u_loss = draw_uniform();
    const double u_flip = draw_uniform();
    if (ge_->step(u_loss, u_flip)) drop = true;
  }
  return drop;
}

void Link::send(Packet p) {
  if (telemetry_ && telemetry_->tracing()) {
    emit_packet(TraceType::kPacketSend, p);
  }
  const Bytes wire = p.wire_size;
  if (down_ || loss_model_drops() ||
      !queue_->enqueue(p, queued_bytes_ + wire - config_.queue_capacity)) {
    drop_packet(p);
  } else {
    queued_bytes_ += wire;
  }
  // Either way: a refused arrival may have shed queued packets first.
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
  if (!busy_ && has_backlog()) start_serializing();
}

bool Link::has_backlog() const { return serializing_ || !queue_->empty(); }

void Link::set_down(bool down) {
  down_ = down;
  if (!down_) return;
  // Everything still waiting behind the radio is lost with it. The packet
  // on the radio (serializing_) is dropped when its serialization
  // completes; packets already propagating still arrive.
  queue_->drop_all();
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));
}

void Link::set_rate_factor(double factor) {
  rate_factor_ = factor > 0.0 ? factor : 0.0;
}

void Link::set_ge_loss(const std::optional<GilbertElliottConfig>& ge) {
  config_.ge_loss = ge;
  if (ge) {
    ge_.emplace(*ge);
  } else {
    ge_.reset();
  }
}

void Link::start_serializing() {
  // The queue's pick is committed here: the packet moves into serializing_
  // (a zero-rate retry finds it still there).
  if (!serializing_) serializing_ = queue_->dequeue();
  busy_ = true;
  const Bytes wire = serializing_->wire_size;
  // A factor-f rate scale is equivalent to serializing wire_size/f bytes at
  // the unscaled trace rate; factor 0 behaves like a zero-rate tail.
  TimePoint done = TimePoint::max();
  if (rate_factor_ > 0.0) {
    const auto scaled = static_cast<Bytes>(
        std::ceil(static_cast<double>(wire) / rate_factor_));
    done = config_.rate.time_to_deliver(loop_.now(), scaled);
  }
  if (done == TimePoint::max()) {
    // Zero-rate tail: the packet is stuck; retry after a coarse interval so
    // looped/step traces (or a restored rate factor) can resume.
    loop_.schedule_in(milliseconds(100), [this] {
      busy_ = false;
      if (has_backlog()) start_serializing();
    });
    return;
  }
  loop_.schedule_at(done, [this] { on_serialized(); });
}

void Link::on_serialized() {
  Packet p = std::move(*serializing_);
  serializing_.reset();
  queued_bytes_ -= p.wire_size;
  if (telemetry_) queue_gauge_.set(static_cast<double>(queued_bytes_));

  if (down_) {
    // The link died while this packet was on the radio.
    drop_packet(p);
  } else {
    std::uint32_t slot;
    if (inflight_free_.empty()) {
      slot = static_cast<std::uint32_t>(inflight_.size());
      inflight_.push_back(std::move(p));
    } else {
      slot = inflight_free_.back();
      inflight_free_.pop_back();
      inflight_[slot] = std::move(p);
    }
    loop_.schedule_in(config_.propagation_delay + extra_delay_,
                      [this, slot] { deliver(slot); });
  }

  busy_ = false;
  if (has_backlog()) start_serializing();
}

void Link::deliver(std::uint32_t slot) {
  Packet p = std::move(inflight_[slot]);
  inflight_free_.push_back(slot);
  delivered_bytes_ += p.wire_size;
  ++delivered_packets_;
  add_flow_bytes(flow_delivered_, p.flow, p.wire_size);
  if (telemetry_) {
    delivered_bytes_counter_.add(static_cast<double>(p.wire_size));
    delivered_packets_counter_.increment();
    if (telemetry_->tracing()) emit_packet(TraceType::kPacketDeliver, p);
  }
  const auto f = static_cast<std::size_t>(p.flow);
  if (f < flow_deliver_.size() && flow_deliver_[f]) {
    flow_deliver_[f](std::move(p));
  } else if (deliver_) {
    deliver_(std::move(p));
  }
}

}  // namespace mpdash
