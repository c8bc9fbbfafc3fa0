#pragma once
// A network path = forward + reverse link pair plus the user-facing
// metadata MP-DASH schedules on (interface kind, unit-data cost,
// preference order).

#include <string>

#include "link/link.h"
#include "link/shaper.h"

namespace mpdash {

enum class InterfaceKind : std::uint8_t {
  kWifi,
  kCellular,
  kOther,
};

inline const char* to_string(InterfaceKind k) {
  switch (k) {
    case InterfaceKind::kWifi: return "wifi";
    case InterfaceKind::kCellular: return "cellular";
    default: return "other";
  }
}

struct PathDescription {
  int id = 0;
  std::string name;
  InterfaceKind kind = InterfaceKind::kOther;
  // Unit-data cost c(i) from the paper's formulation; lower = preferred.
  // WiFi defaults to free, cellular to metered.
  double unit_cost = 0.0;
  bool metered = false;
};

// One flow's view of a network path: a forward + reverse link pair it
// does not own (other flows may share them), an optional shaper in front
// of the downlink, and the metadata MP-DASH schedules on. Packets are
// stamped with the path id and the view's flow id, and deliveries demux
// through Link's per-flow handlers, so the MPTCP stack above is oblivious
// to the sharing. A single session is flow 0; a fleet tenant's flow is its
// session index (exp/scenario.h).
class NetPath {
 public:
  // `flow` must be unique per tenant on these links.
  NetPath(PathDescription desc, Link& down, Link& up, int flow,
          TokenBucketShaper* down_shaper);

  const PathDescription& description() const { return desc_; }
  int id() const { return desc_.id; }
  int flow() const { return flow_; }
  // The same path for another flow on the same links.
  NetPath for_flow(int flow) const;

  // Entry points: packets from the server side (data) / client side (ACKs,
  // requests).
  void send_downlink(Packet p);
  void send_uplink(Packet p);

  void set_downlink_deliver(Link::DeliverHandler h);
  void set_uplink_deliver(Link::DeliverHandler h);

  Link& downlink() { return *down_; }
  Link& uplink() { return *up_; }
  const Link& downlink() const { return *down_; }
  const Link& uplink() const { return *up_; }
  Duration base_rtt() const;
  // Wire bytes this view's flow took off both links.
  Bytes delivered_wire_bytes() const;

 private:
  PathDescription desc_;
  Link* down_;
  Link* up_;
  int flow_;
  TokenBucketShaper* down_shaper_;
};

}  // namespace mpdash
