#include "tcp/subflow.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpdash {

SubflowSender::SubflowSender(EventLoop& loop, SubflowConfig config,
                             std::function<void(Packet)> transmit,
                             std::function<void()> on_capacity)
    : loop_(loop),
      config_(config),
      transmit_(std::move(transmit)),
      on_capacity_(std::move(on_capacity)),
      cwnd_(config.initial_cwnd),
      srtt_(config.initial_rtt),
      rttvar_(config.initial_rtt / 2) {}

SubflowSender::~SubflowSender() { loop_.cancel(rto_timer_); }

bool SubflowSender::can_send() const {
  return static_cast<double>(inflight_) < cwnd_;
}

void SubflowSender::set_telemetry(Telemetry* telemetry,
                                  const std::string& scope, bool emit_trace) {
  telemetry_ = telemetry;
  emit_trace_ = emit_trace;
  if (!telemetry_) {
    cwnd_gauge_ = Gauge{};
    srtt_gauge_ = Gauge{};
    rtt_histogram_ = Histogram{};
    retransmissions_counter_ = Counter{};
    timeouts_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  const std::string prefix = scope + "." + std::to_string(config_.path_id);
  cwnd_gauge_ = m.gauge(prefix + ".cwnd");
  srtt_gauge_ = m.gauge(prefix + ".srtt_ms");
  rtt_histogram_ = m.histogram(prefix + ".rtt_ms",
                               {10, 20, 50, 100, 200, 500, 1000});
  retransmissions_counter_ = m.counter(prefix + ".retransmissions");
  timeouts_counter_ = m.counter(prefix + ".timeouts");
  publish_window_state();
}

void SubflowSender::publish_window_state() {
  cwnd_gauge_.set(cwnd_);
  srtt_gauge_.set(to_seconds(srtt_) * 1e3);
  if (emit_trace_ && telemetry_->tracing()) {
    TraceRecord r;
    r.at = loop_.now();
    r.type = TraceType::kSubflowUpdate;
    r.path_id = config_.path_id;
    r.cwnd = cwnd_;
    r.ssthresh = ssthresh_;
    r.srtt_ms = to_seconds(srtt_) * 1e3;
    telemetry_->emit(r);
  }
}

Duration SubflowSender::rto() const {
  Duration base = srtt_ + 4 * rttvar_;
  base = std::clamp(base, config_.min_rto, config_.max_rto);
  // The backoff shift must not escape the cap either: max_rto bounds the
  // *effective* timeout (RFC 6298 §5.5), not just its pre-backoff base.
  return std::min(base * (1 << std::min(rto_backoff_, 6)), config_.max_rto);
}

void SubflowSender::send_data(std::uint64_t data_seq, Bytes len,
                              std::vector<SegmentRef> segments) {
  assert(len > 0 && len <= kMaxSegmentSize);
  // Congestion window validation (RFC 7661 spirit): after an idle period
  // the ack clock is gone, so restart from the initial window instead of
  // blasting a stale, arbitrarily large cwnd into the bottleneck queue.
  if (inflight_ == 0 && last_send_ != kTimeZero &&
      loop_.now() - last_send_ > rto()) {
    cwnd_ = std::min(cwnd_, config_.initial_cwnd);
  }
  last_send_ = loop_.now();
  if (next_seq_ - base_seq_ == window_.size()) grow_window();
  const std::uint64_t seq = next_seq_++;
  // Retransmits reuse this SentPacket, so the span sticks to the chunk
  // request that originally queued the bytes. Pipelined senders stamp the
  // owning span onto segments at enqueue time; segment tags therefore take
  // precedence over the ambient active span (a packet can only carry bytes
  // from one request — StreamBuffer never merges segments).
  std::uint64_t span = 0;
  for (const SegmentRef& seg : segments) {
    if (seg.span != 0) {
      span = seg.span;
      break;
    }
  }
  if (span == 0) span = telemetry_ ? telemetry_->active_span() : 0;
  SentPacket& sp = slot(seq);
  sp = SentPacket{data_seq, len, std::move(segments), loop_.now(), span};
  sp.live = true;
  ++inflight_;
  transmit_packet(seq, sp, /*retransmit=*/false);
  arm_rto();
}

void SubflowSender::transmit_packet(std::uint64_t subflow_seq,
                                    const SentPacket& sp, bool retransmit) {
  Packet p;
  p.id = loop_.allocate_id();
  p.kind = PacketKind::kData;
  p.path_id = config_.path_id;
  p.span = sp.span;
  p.subflow_seq = subflow_seq;
  p.data_seq = sp.data_seq;
  p.payload_len = sp.payload_len;
  p.segments = sp.segments;
  p.is_retransmit = retransmit;
  p.wire_size = sp.payload_len + kPacketHeaderBytes;
  p.sent_at = loop_.now();
  transmit_(std::move(p));
}

void SubflowSender::update_rtt(Duration sample) {
  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_sample_ = true;
    return;
  }
  const auto diff = srtt_ > sample ? srtt_ - sample : sample - srtt_;
  rttvar_ = (3 * rttvar_ + diff) / 4;
  srtt_ = (7 * srtt_ + sample) / 8;
}

void SubflowSender::on_ack(const Packet& ack) {
  const std::uint64_t seq = ack.ack_subflow_seq;
  if (seq == 0) return;  // bare control ack (path-mask update only)
  if (seq < base_seq_ || seq >= next_seq_) return;  // duplicate/stale ack
  SentPacket& acked = slot(seq);
  if (!acked.live) return;

  if (!ack.echo_is_retransmit) {
    update_rtt(loop_.now() - ack.echo_sent_at);  // Karn's rule
    if (telemetry_) {
      rtt_histogram_.record(to_seconds(loop_.now() - ack.echo_sent_at) * 1e3);
    }
  }
  rto_backoff_ = 0;
  consecutive_timeouts_ = 0;

  bytes_acked_ += acked.payload_len;
  // Congestion avoidance / slow start.
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;
  } else {
    cwnd_ += 1.0 / cwnd_;
  }
  const TimePoint acked_sent_at = acked.sent_at;
  if (acked.resent) {
    resent_.erase(std::lower_bound(resent_.begin(), resent_.end(), seq));
  }
  acked.live = false;
  acked.segments = std::vector<SegmentRef>();
  --inflight_;
  pop_dead_front();

  // Time-based (RACK-style) loss accounting: any packet transmitted
  // before the one just acknowledged has been "overtaken". Packets never
  // retransmitted are in send order, so the overtaken ones among them are
  // a prefix. Resent packets need no count (see detect_losses).
  for (std::uint64_t s = first_original(); s < next_seq_; ++s) {
    SentPacket& sp = slot(s);
    if (!sp.live || sp.resent) continue;
    if (sp.sent_at >= acked_sent_at) break;
    ++sp.sacked_above;
  }
  detect_losses();
  arm_rto();
  if (telemetry_) publish_window_state();
  if (can_send() && on_capacity_) on_capacity_();
}

void SubflowSender::enter_recovery(std::uint64_t trigger_seq) {
  if (trigger_seq < recovery_until_) return;  // already reacted this window
  recovery_until_ = next_seq_;
  ssthresh_ = std::max(cwnd_ / 2.0, config_.min_cwnd);
  cwnd_ = ssthresh_;
}

void SubflowSender::detect_losses() {
  // At most one retransmission per incoming ack: keeps recovery
  // self-clocked at the bottleneck rate instead of re-flooding the queue
  // that just overflowed (RFC 6675's pipe rule, radically simplified).
  // The lowest seq with three overtakes and no pending retransmission
  // goes. Each ack bumps a prefix of the never-retransmitted packets, so
  // their overtake counts fall with seq and the first one speaks for all.
  // A resent packet is due again once an RTO has cleared its flag: a fast
  // retransmit needed three overtakes already, and the packet an RTO
  // resends is the front, which only the next RTO unflags — and resends.
  std::uint64_t lost = first_original();
  if (lost < next_seq_ && slot(lost).sacked_above < 3) lost = next_seq_;
  for (std::uint64_t s : resent_) {
    if (s >= lost) break;
    if (!slot(s).retransmitted) {
      lost = s;
      break;
    }
  }
  if (lost == next_seq_) return;
  enter_recovery(lost);
  retransmit(lost, slot(lost));
}

void SubflowSender::retransmit(std::uint64_t seq, SentPacket& sp) {
  if (!sp.resent) {
    sp.resent = true;
    resent_.insert(std::upper_bound(resent_.begin(), resent_.end(), seq), seq);
  }
  sp.retransmitted = true;
  sp.sent_at = loop_.now();
  ++retransmissions_;
  if (telemetry_) retransmissions_counter_.increment();
  transmit_packet(seq, sp, /*retransmit=*/true);
}

void SubflowSender::arm_rto() {
  if (inflight_ == 0) {
    loop_.cancel(rto_timer_);
  } else if (!loop_.reschedule(rto_timer_, loop_.now() + rto())) {
    // Not pending: it fired or was cancelled.
    rto_timer_ = loop_.schedule_in(rto(), [this] { on_rto(); });
  }
}

void SubflowSender::on_rto() {
  if (inflight_ == 0) return;
  ++timeouts_;
  ++rto_backoff_;
  ++consecutive_timeouts_;
  if (telemetry_) timeouts_counter_.increment();
  if (config_.max_consecutive_rtos > 0 &&
      consecutive_timeouts_ >= config_.max_consecutive_rtos && on_failure_) {
    // The path is declared dead. No further retransmission here — the
    // failure handler decides what happens to the stranded data (it
    // usually calls take_unacked() and reinjects on live subflows).
    on_failure_();
    return;
  }
  ssthresh_ = std::max(cwnd_ / 2.0, config_.min_cwnd);
  cwnd_ = 1.0;
  recovery_until_ = next_seq_;
  // An RTO voids the retransmitted flags (a retransmission may itself
  // have been lost) but keeps the overtake counters — fast retransmit
  // must stay armed for the rest of the window.
  for (std::uint64_t s : resent_) slot(s).retransmitted = false;
  // Retransmit the oldest outstanding packet; later ones follow as acks
  // (or further timeouts) arrive.
  retransmit(base_seq_, slot(base_seq_));
  arm_rto();
  if (telemetry_) publish_window_state();
  if (can_send() && on_capacity_) on_capacity_();
}

void SubflowSender::grow_window() {
  std::vector<SentPacket> ring(std::max<std::size_t>(16, 2 * window_.size()));
  for (std::uint64_t s = base_seq_; s < next_seq_; ++s) {
    ring[s & (ring.size() - 1)] = std::move(slot(s));
  }
  window_ = std::move(ring);
}

void SubflowSender::pop_dead_front() {
  while (base_seq_ < next_seq_ && !slot(base_seq_).live) ++base_seq_;
  if (base_seq_ == next_seq_) {
    window_ = std::vector<SentPacket>();
    resent_ = std::vector<std::uint64_t>();
  }
}

std::uint64_t SubflowSender::first_original() {
  std::uint64_t s = std::max(originals_from_, base_seq_);
  while (s < next_seq_ && (!slot(s).live || slot(s).resent)) ++s;
  originals_from_ = s;
  return s;
}

std::vector<UnackedData> SubflowSender::take_unacked() {
  loop_.cancel(rto_timer_);
  std::vector<UnackedData> out;
  out.reserve(inflight_);
  for (std::uint64_t s = base_seq_; s < next_seq_; ++s) {
    SentPacket& sp = slot(s);
    if (sp.live) {
      out.push_back({sp.data_seq, sp.payload_len, std::move(sp.segments)});
    }
  }
  inflight_ = 0;
  base_seq_ = next_seq_;
  pop_dead_front();
  return out;
}

void SubflowSender::reset_for_reconnect() {
  assert(inflight_ == 0);
  loop_.cancel(rto_timer_);
  cwnd_ = config_.initial_cwnd;
  ssthresh_ = 1e9;
  recovery_until_ = next_seq_;
  srtt_ = config_.initial_rtt;
  rttvar_ = config_.initial_rtt / 2;
  have_rtt_sample_ = false;
  rto_backoff_ = 0;
  consecutive_timeouts_ = 0;
  last_send_ = kTimeZero;
  if (telemetry_) publish_window_state();
}

}  // namespace mpdash
