#include "mptcp/connection.h"

#include <stdexcept>

namespace mpdash {

MptcpConnection::MptcpConnection(EventLoop& loop, std::vector<NetPath*> paths)
    : paths_(std::move(paths)) {
  client_ = std::make_unique<MptcpEndpoint>(loop, MptcpEndpoint::Role::kClient);
  server_ = std::make_unique<MptcpEndpoint>(loop, MptcpEndpoint::Role::kServer);

  for (NetPath* p : paths_) {
    const int id = p->id();
    SubflowConfig cfg;
    cfg.path_id = id;
    cfg.initial_rtt = p->base_rtt();

    // Server's outgoing direction is the downlink.
    server_->add_path(cfg, [p](Packet pkt) { p->send_downlink(std::move(pkt)); });
    // Client's outgoing direction is the uplink.
    client_->add_path(cfg, [p](Packet pkt) { p->send_uplink(std::move(pkt)); });

    // Everything arriving at the client came off the downlink.
    p->set_downlink_deliver(
        [this](Packet pkt) { client_->on_packet(std::move(pkt)); });
    p->set_uplink_deliver(
        [this](Packet pkt) { server_->on_packet(std::move(pkt)); });
  }
}

MptcpConnection::~MptcpConnection() {
  for (NetPath* p : paths_) {
    p->set_downlink_deliver(nullptr);
    p->set_uplink_deliver(nullptr);
  }
}

void MptcpConnection::set_telemetry(Telemetry* telemetry) {
  client_->set_telemetry(telemetry);
  server_->set_telemetry(telemetry);
}

NetPath& MptcpConnection::path(int path_id) {
  for (NetPath* p : paths_) {
    if (p->id() == path_id) return *p;
  }
  throw std::out_of_range("unknown path id");
}

Bytes MptcpConnection::wire_bytes(int path_id) const {
  for (const NetPath* p : paths_) {
    if (p->id() == path_id) return p->delivered_wire_bytes();
  }
  throw std::out_of_range("unknown path id");
}

}  // namespace mpdash
