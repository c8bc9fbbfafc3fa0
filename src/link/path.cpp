#include "link/path.h"

#include <utility>

namespace mpdash {

NetPath::NetPath(PathDescription desc, Link& down, Link& up, int flow,
                 TokenBucketShaper* down_shaper)
    : desc_(std::move(desc)),
      down_(&down),
      up_(&up),
      flow_(flow),
      down_shaper_(down_shaper) {}

NetPath NetPath::for_flow(int flow) const {
  NetPath view = *this;
  view.flow_ = flow;
  return view;
}

void NetPath::send_downlink(Packet p) {
  p.path_id = desc_.id;
  p.flow = flow_;
  if (down_shaper_) {
    down_shaper_->send(std::move(p));
  } else {
    down_->send(std::move(p));
  }
}

void NetPath::send_uplink(Packet p) {
  p.path_id = desc_.id;
  p.flow = flow_;
  up_->send(std::move(p));
}

void NetPath::set_downlink_deliver(Link::DeliverHandler h) {
  down_->set_flow_deliver(flow_, std::move(h));
}

void NetPath::set_uplink_deliver(Link::DeliverHandler h) {
  up_->set_flow_deliver(flow_, std::move(h));
}

Duration NetPath::base_rtt() const {
  return down_->propagation_delay() + up_->propagation_delay();
}

Bytes NetPath::delivered_wire_bytes() const {
  return down_->delivered_bytes_for_flow(flow_) +
         up_->delivered_bytes_for_flow(flow_);
}

}  // namespace mpdash
