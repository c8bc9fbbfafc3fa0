#pragma once
// Wires a client and a server endpoint across a set of NetPaths.
//
// Server data packets travel on each path's downlink and are acked on its
// uplink; client request data travels the opposite way. The connection is
// considered pre-established (the paper keeps subflows up and toggles
// their *use*, precisely to avoid handshake latency).

#include <memory>
#include <vector>

#include "link/path.h"
#include "mptcp/endpoint.h"

namespace mpdash {

class MptcpConnection {
 public:
  // Paths are borrowed; they must outlive the connection.
  MptcpConnection(EventLoop& loop, std::vector<NetPath*> paths);
  // Clears the delivery handlers it installed on its paths' links, so the
  // packets still propagating there never reach the dead endpoints.
  ~MptcpConnection();

  MptcpConnection(const MptcpConnection&) = delete;
  MptcpConnection& operator=(const MptcpConnection&) = delete;

  MptcpEndpoint& client() { return *client_; }
  MptcpEndpoint& server() { return *server_; }

  NetPath& path(int path_id);
  const std::vector<NetPath*>& paths() const { return paths_; }

  // Total bytes that crossed a path's radio in both directions (data +
  // acks + headers) — the "cellular usage" metric of the evaluation.
  Bytes wire_bytes(int path_id) const;

  // Wires telemetry into both endpoints (the borrowed paths are wired by
  // whoever owns them — see Scenario::set_telemetry).
  void set_telemetry(Telemetry* telemetry);

 private:
  std::vector<NetPath*> paths_;
  std::unique_ptr<MptcpEndpoint> client_;
  std::unique_ptr<MptcpEndpoint> server_;
};

}  // namespace mpdash
