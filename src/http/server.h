#pragma once
// HTTP/1.1 server engine over an MPTCP endpoint: parses the request
// stream and writes handler-produced responses back in order. The video
// server application stays untouched by MP-DASH, exactly as the paper's
// deployment story requires — path control arrives via the transport.
//
// Fault hooks (driven by src/fault): a stalled server holds finished
// responses until released; a dropping server discards requests outright,
// modeling a reset/overloaded origin the client can only recover from by
// timing out and retrying.

#include <deque>
#include <functional>

#include "http/message.h"
#include "http/parser.h"
#include "mptcp/endpoint.h"

namespace mpdash {

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Installs itself as the endpoint's receive handler.
  HttpServer(MptcpEndpoint& endpoint, Handler handler);

  std::size_t requests_served() const { return served_; }
  std::size_t requests_dropped() const { return dropped_; }

  // --- fault hooks -----------------------------------------------------
  // Stalled: requests are still parsed and handled, but responses queue
  // up server-side; clearing the stall flushes them in order.
  void set_stalled(bool stalled);
  // Dropping: requests are consumed off the stream and thrown away. The
  // client never hears back for these.
  void set_dropping(bool dropping) { dropping_ = dropping; }

 private:
  void on_request(const HttpRequest& req);

  MptcpEndpoint& endpoint_;
  Handler handler_;
  HttpStreamParser parser_;
  std::size_t served_ = 0;
  std::size_t dropped_ = 0;
  bool stalled_ = false;
  bool dropping_ = false;
  // Span carried by the request bytes currently being fed to the parser.
  // Pipelined clients tag each request's segments with its span; a
  // request's bytes are a contiguous single-span run, so feeding the
  // parser one segment at a time makes on_request fire while rx_span_
  // still holds the owning request's span — even when two pipelined
  // requests share one packet.
  SpanId rx_span_ = 0;
  struct StalledResponse {
    WireData wire;
    SpanId span = 0;
  };
  std::deque<StalledResponse> stalled_responses_;
};

// Convenience 404.
HttpResponse not_found();

}  // namespace mpdash
