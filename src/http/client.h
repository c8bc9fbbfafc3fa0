#pragma once
// Pipelined HTTP/1.1 client over an MPTCP endpoint. By default one
// request is in flight at a time (seed behavior: DASH players fetch
// chunks back to back); HttpClientConfig::max_pipeline > 1 lets up to N
// requests share the persistent connection, each carrying its own causal
// span so interleaved transfers stay attributable end to end. Completion
// callbacks carry the parsed response, any real body bytes (manifests),
// and transfer timing; with pipelining they can fire out of request
// order when retries reshuffle responses.
//
// Optional robustness layer (HttpClientConfig::request_timeout > 0): each
// request is watched by its own timer; on expiry it is retried with
// capped exponential backoff and deterministic jitter, up to a bounded
// per-request retry budget, after which the transfer completes with a
// typed error. Retried requests carry a monotonically increasing id
// header the server echoes; responses are matched to their owning
// request by that id, so a late response to an abandoned attempt is
// recognized and discarded instead of desynchronizing response framing.

#include <cstdint>
#include <functional>
#include <list>
#include <string>

#include "http/message.h"
#include "http/parser.h"
#include "mptcp/endpoint.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace mpdash {

// Echoed request-id header (only present when the retry layer is active,
// so default runs stay byte-identical with the seed wire format).
inline constexpr const char kRequestIdHeader[] = "X-Mpdash-Rid";

enum class TransferError {
  kNone = 0,
  kTimeout,      // retry budget exhausted
  kParseError,   // response stream malformed beyond recovery
  kAborted,      // client shut down with the transfer pending
};

const char* to_string(TransferError e);

struct HttpTransfer {
  HttpResponse response;
  std::string body;       // real body bytes only (virtual bytes omitted)
  Bytes body_bytes = 0;   // total body bytes, real + virtual
  TimePoint request_sent = kTimeZero;
  TimePoint head_received = kTimeZero;
  TimePoint completed = kTimeZero;
  TransferError error = TransferError::kNone;
  int retries = 0;        // resends beyond the first attempt

  bool ok() const { return error == TransferError::kNone; }
  Duration download_time() const { return completed - request_sent; }
};

struct HttpClientConfig {
  // Per-attempt response deadline. Zero disables the whole robustness
  // layer (seed behavior: wait forever, no id header on the wire).
  Duration request_timeout = kDurationZero;
  int max_retries = 3;  // resends after the first attempt
  // Deterministic jitter stream: each backoff (250 ms doubling per
  // attempt, at most 4 s) is scaled by a uniform factor in [1, 1.25)
  // drawn from this seed.
  std::uint64_t jitter_seed = 0;
  // Maximum requests in flight on the persistent connection. 1 = strict
  // sequential (seed behavior); a pipelined player raises it to its
  // chunk lookahead so prefetch requests actually reach the wire.
  int max_pipeline = 1;
};

class HttpClient {
 public:
  using CompletionHandler = std::function<void(const HttpTransfer&)>;
  using ProgressHandler = std::function<void(Bytes received, Bytes total)>;

  // Installs itself as the endpoint's receive handler.
  HttpClient(EventLoop& loop, MptcpEndpoint& endpoint,
             HttpClientConfig config = {});
  ~HttpClient();

  // Enqueues a GET. `on_done` fires when the full body has arrived — or,
  // with the retry layer active, when the retry budget is exhausted
  // (transfer.error != kNone, response fields undefined). A nonzero
  // `span` stamps the request's wire segments and every kHttp record for
  // this transfer with the owning chunk span (0 = legacy ambient
  // stamping, seed behavior).
  void get(std::string target, CompletionHandler on_done,
           ProgressHandler on_progress = nullptr, SpanId span = 0);

  std::size_t outstanding() const { return pending_.size(); }
  std::size_t inflight() const { return inflight_; }
  bool busy() const { return inflight_ > 0; }
  std::size_t timeouts() const { return timeouts_; }
  std::size_t retries_sent() const { return retries_sent_; }
  const HttpClientConfig& config() const { return config_; }

  // Registers `http.*` counters and emits kHttp lifecycle records
  // (request/timeout/retry/response/giveup). nullptr detaches.
  void set_telemetry(Telemetry* telemetry);

 private:
  struct Pending {
    std::string target;
    CompletionHandler on_done;
    ProgressHandler on_progress;
    SpanId span = 0;
    bool sent = false;         // request bytes are on the wire
    int attempt = 0;           // 0 = first send
    std::uint64_t rid = 0;     // id the current attempt awaits
    HttpTransfer transfer;
    EventId timeout_timer;
    EventId retry_timer;
  };
  // std::list: stable node addresses for timer lambdas and the receiving
  // pointer across queue/completion churn, plus mid-list erase for
  // out-of-order completions.
  using PendingList = std::list<Pending>;

  void maybe_send_next();
  void send_attempt(Pending& p);
  void on_stream_data(const WireData& data);
  void on_timeout(Pending* p);
  void complete_with_error(PendingList::iterator it, TransferError error);
  PendingList::iterator iter_of(Pending* p);
  Duration backoff_delay(int attempt);
  void emit_http(const char* event, int attempt, double value, SpanId span);

  EventLoop& loop_;
  MptcpEndpoint& endpoint_;
  HttpClientConfig config_;
  HttpStreamParser parser_;
  PendingList pending_;            // sent entries first, then queued
  std::size_t inflight_ = 0;       // entries with sent == true
  bool parser_dead_ = false;  // response stream poisoned; fail everything
  Pending* receiving_ = nullptr;  // entry the parser is mid-message on
  bool discarding_stale_ = false;  // response matches an abandoned attempt

  std::uint64_t next_rid_ = 1;     // id stamped on the next attempt
  Rng jitter_rng_;
  std::size_t timeouts_ = 0;
  std::size_t retries_sent_ = 0;

  Telemetry* telemetry_ = nullptr;
  Counter timeouts_counter_;
  Counter retries_counter_;
};

}  // namespace mpdash
