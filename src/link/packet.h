#pragma once
// On-wire packet model shared by the link, TCP, and MPTCP layers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/units.h"

namespace mpdash {

enum class PacketKind : std::uint8_t {
  kData,
  kAck,
};

// Reference to payload content. Header bytes of the HTTP layer are carried
// as real strings (so receivers and the analysis tool can parse them);
// video-body bytes are "virtual": only their length travels.
struct SegmentRef {
  std::shared_ptr<const std::string> real;  // null => virtual bytes
  std::size_t offset = 0;                   // into *real when real != null
  std::size_t len = 0;
  // Causal span of the request/response these bytes belong to (0 = none).
  // Out-of-band metadata only — never serialized, never sized — so a
  // pipelined sender can attribute interleaved byte runs per request
  // without changing the wire format.
  std::uint64_t span = 0;

  bool is_virtual() const { return real == nullptr; }
};

struct Packet {
  std::uint64_t id = 0;  // unique within one simulation (EventLoop-issued)
  PacketKind kind = PacketKind::kData;
  int path_id = -1;
  // Flow id on a shared link (fleet workloads multiplex one link across
  // sessions). 0 for single-tenant links; stamped by the NetPath view.
  int flow = 0;
  // Causal span of the chunk request this packet serves (0 = none).
  // Stamped at send time so delivery/drop records attribute to the span
  // that queued the bytes, not whichever span is active when they land.
  std::uint64_t span = 0;

  Bytes wire_size = 0;  // headers + payload, what the link serializes

  // --- data packets ---
  std::uint64_t subflow_seq = 0;  // per-subflow packet sequence number
  std::uint64_t data_seq = 0;     // connection-level byte offset of payload
  Bytes payload_len = 0;
  bool is_retransmit = false;
  std::vector<SegmentRef> segments;

  // --- ACK packets ---
  std::uint64_t ack_subflow_seq = 0;  // the subflow_seq being acknowledged
  TimePoint echo_sent_at = kTimeZero;  // timestamp echoed for RTT sampling
  bool echo_is_retransmit = false;

  // MP-DASH: client->server scheduler decision, piggybacked on every ACK
  // (models the reserved bit in the MPTCP DSS option). Bit i set = path i
  // enabled for data. The version counter orders decisions across paths:
  // copies of the signal race each other on links with different delays,
  // and a stale mask must never override a newer one.
  std::uint32_t dss_path_mask = ~0u;
  std::uint64_t dss_mask_version = 0;

  TimePoint sent_at = kTimeZero;
};

// Per-packet protocol overhead: IPv4 + TCP + MPTCP DSS option.
constexpr Bytes kPacketHeaderBytes = 60;
constexpr Bytes kMaxSegmentSize = 1400;  // payload bytes per data packet
constexpr Bytes kAckWireSize = kPacketHeaderBytes;

}  // namespace mpdash
