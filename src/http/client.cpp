#include "http/client.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace mpdash {

// Retry backoff: the base delay doubles per attempt, and the cap bounds
// the final, post-jitter delay.
constexpr Duration kBackoffBase = milliseconds(250);
constexpr double kBackoffFactor = 2.0;
constexpr Duration kBackoffCap = seconds(4.0);

const char* to_string(TransferError e) {
  switch (e) {
    case TransferError::kNone: return "none";
    case TransferError::kTimeout: return "timeout";
    case TransferError::kParseError: return "parse-error";
    case TransferError::kAborted: return "aborted";
  }
  return "unknown";
}

HttpClient::HttpClient(EventLoop& loop, MptcpEndpoint& endpoint,
                       HttpClientConfig config)
    : loop_(loop),
      endpoint_(endpoint),
      config_(config),
      parser_(HttpStreamParser::Mode::kResponses,
              HttpStreamParser::Callbacks{
                  .on_request = nullptr,
                  .on_response_head =
                      [this](const HttpResponse& head) {
                        // Match the response to the sent entry that owns
                        // it. With the retry layer on, ownership is by
                        // echoed request id (completed entries left the
                        // list, so a late duplicate or a response to an
                        // abandoned attempt matches nothing); without it,
                        // responses arrive strictly in request order, so
                        // the oldest sent entry owns the message. No
                        // owner => swallow the whole message.
                        receiving_ = nullptr;
                        if (config_.request_timeout > kDurationZero) {
                          const auto rid = head.header(kRequestIdHeader);
                          const std::uint64_t id =
                              rid ? std::strtoull(rid->c_str(), nullptr, 10)
                                  : 0;
                          if (id != 0) {
                            for (Pending& p : pending_) {
                              if (p.sent && p.rid == id) {
                                receiving_ = &p;
                                break;
                              }
                            }
                          }
                        } else {
                          for (Pending& p : pending_) {
                            if (p.sent) {
                              receiving_ = &p;
                              break;
                            }
                          }
                        }
                        discarding_stale_ = receiving_ == nullptr;
                        if (discarding_stale_) return;
                        receiving_->transfer.response = head;
                        receiving_->transfer.head_received = loop_.now();
                      },
                  .on_body =
                      [this](Bytes count, const std::string& real) {
                        if (discarding_stale_ || !receiving_) return;
                        HttpTransfer& t = receiving_->transfer;
                        t.body_bytes += count;
                        t.body += real;
                        if (receiving_->on_progress) {
                          receiving_->on_progress(t.body_bytes,
                                                  t.response.content_length());
                        }
                      },
                  .on_message_complete =
                      [this] {
                        if (discarding_stale_) {
                          discarding_stale_ = false;
                          return;  // keep waiting for the live attempt
                        }
                        Pending* p = receiving_;
                        receiving_ = nullptr;
                        // The owner can die mid-message (retry budget
                        // exhausted while the body trickled in); the
                        // tail of its response belongs to no one.
                        if (!p) return;
                        loop_.cancel(p->timeout_timer);
                        p->timeout_timer = EventId{};
                        // A response can land during a retry backoff (the
                        // attempt timed out but was merely late); the
                        // scheduled resend must die with the transfer or
                        // it fires against a request that already
                        // finished.
                        loop_.cancel(p->retry_timer);
                        p->retry_timer = EventId{};
                        emit_http("response", p->attempt,
                                  static_cast<double>(p->transfer.body_bytes),
                                  p->span);
                        p->transfer.completed = loop_.now();
                        p->transfer.retries = p->attempt;
                        p->rid = 0;
                        Pending done = std::move(*p);
                        pending_.erase(iter_of(p));
                        --inflight_;
                        // Issue the next request before the callback so
                        // back-to-back fetches pipeline tightly.
                        maybe_send_next();
                        if (done.on_done) done.on_done(done.transfer);
                      },
                  .on_error =
                      [this](HttpParseError, const std::string&) {
                        // Response framing is unrecoverable: every queued
                        // transfer on this stream is lost, not just the
                        // in-flight ones. Completion callbacks may enqueue
                        // follow-up gets; those fail here too.
                        parser_dead_ = true;
                        receiving_ = nullptr;
                        discarding_stale_ = false;
                        while (!pending_.empty()) {
                          complete_with_error(pending_.begin(),
                                              TransferError::kParseError);
                        }
                      }}),
      jitter_rng_(config.jitter_seed) {
  endpoint_.set_receive_handler(
      [this](const WireData& data) { on_stream_data(data); });
}

HttpClient::~HttpClient() {
  for (Pending& p : pending_) {
    loop_.cancel(p.timeout_timer);
    loop_.cancel(p.retry_timer);
  }
}

void HttpClient::get(std::string target, CompletionHandler on_done,
                     ProgressHandler on_progress, SpanId span) {
  Pending p;
  p.target = std::move(target);
  p.on_done = std::move(on_done);
  p.on_progress = std::move(on_progress);
  p.span = span;
  pending_.push_back(std::move(p));
  maybe_send_next();
}

void HttpClient::maybe_send_next() {
  if (parser_dead_) return;
  const auto cap = static_cast<std::size_t>(std::max(1, config_.max_pipeline));
  while (inflight_ < cap) {
    Pending* next = nullptr;
    for (Pending& p : pending_) {
      if (!p.sent) {
        next = &p;
        break;
      }
    }
    if (!next) return;
    next->sent = true;
    ++inflight_;
    next->attempt = 0;
    next->transfer = HttpTransfer{};
    next->transfer.request_sent = loop_.now();
    send_attempt(*next);
  }
}

void HttpClient::send_attempt(Pending& p) {
  HttpRequest req;
  req.target = p.target;
  req.headers.push_back({"Host", "mpdash.local"});
  if (config_.request_timeout > kDurationZero) {
    p.rid = next_rid_++;
    req.headers.push_back({kRequestIdHeader, std::to_string(p.rid)});
    loop_.cancel(p.timeout_timer);
    Pending* owner = &p;
    p.timeout_timer = loop_.schedule_in(config_.request_timeout,
                                        [this, owner] { on_timeout(owner); });
  }
  emit_http("request", p.attempt, 0.0, p.span);
  endpoint_.send(req.to_wire(), p.span);
}

void HttpClient::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    timeouts_counter_ = Counter{};
    retries_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  timeouts_counter_ = m.counter("http.timeouts");
  retries_counter_ = m.counter("http.retries");
}

void HttpClient::emit_http(const char* event, int attempt, double value,
                           SpanId span) {
  if (!telemetry_ || !telemetry_->tracing()) return;
  TraceRecord r;
  r.at = loop_.now();
  r.type = TraceType::kHttp;
  r.label = event;
  r.level = attempt;
  r.value = value;
  // Stamp the owning transfer's span explicitly: with pipelining (and
  // even sequentially, for a retry timer firing between chunks) the
  // ambient active span need not be this request's.
  r.span = span;
  telemetry_->emit(r);
}

void HttpClient::on_timeout(Pending* p) {
  p->timeout_timer = EventId{};
  ++timeouts_;
  if (telemetry_) timeouts_counter_.increment();
  emit_http("timeout", p->attempt, to_seconds(config_.request_timeout),
            p->span);
  if (p->attempt >= config_.max_retries) {
    complete_with_error(iter_of(p), TransferError::kTimeout);
    return;
  }
  // Back off before the resend: if the response is merely late (not
  // lost), the stale-id discard path absorbs it when it lands.
  const Duration delay = backoff_delay(p->attempt);
  ++p->attempt;
  ++retries_sent_;
  if (telemetry_) retries_counter_.increment();
  emit_http("retry", p->attempt, to_seconds(delay), p->span);
  p->retry_timer = loop_.schedule_in(delay, [this, p] {
    p->retry_timer = EventId{};
    send_attempt(*p);
  });
}

Duration HttpClient::backoff_delay(int attempt) {
  const double factor = std::pow(kBackoffFactor, attempt);
  // Deterministic jitter: scale by [1, 1.25) so synchronized clients
  // (e.g. a fleet of chaos runs) don't retry in lockstep.
  const double jitter = 1.0 + 0.25 * jitter_rng_.uniform();
  const double raw =
      static_cast<double>(kBackoffBase.count()) * factor * jitter;
  const double capped =
      std::min(raw, static_cast<double>(kBackoffCap.count()));
  return Duration(static_cast<Duration::rep>(capped));
}

void HttpClient::complete_with_error(PendingList::iterator it,
                                     TransferError error) {
  Pending& p = *it;
  loop_.cancel(p.timeout_timer);
  loop_.cancel(p.retry_timer);
  p.timeout_timer = EventId{};
  p.retry_timer = EventId{};
  emit_http("giveup", p.attempt, static_cast<double>(error), p.span);
  p.transfer.completed = loop_.now();
  p.transfer.retries = p.attempt;
  p.transfer.error = error;
  // A timed-out request may still be answered later; that response now
  // belongs to no transfer and must be dropped when it arrives (its rid
  // matches no live entry once this one leaves the list).
  p.rid = 0;
  if (receiving_ == &p) receiving_ = nullptr;
  const bool was_sent = p.sent;
  Pending done = std::move(p);
  pending_.erase(it);
  if (was_sent) --inflight_;
  maybe_send_next();
  if (done.on_done) done.on_done(done.transfer);
}

HttpClient::PendingList::iterator HttpClient::iter_of(Pending* p) {
  return std::find_if(pending_.begin(), pending_.end(),
                      [p](const Pending& q) { return &q == p; });
}

void HttpClient::on_stream_data(const WireData& data) { parser_.consume(data); }

}  // namespace mpdash
