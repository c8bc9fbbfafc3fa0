#pragma once
// Incremental HTTP/1.1 stream parser.
//
// Consumes the in-order MPTCP byte stream (WireData chunks) and emits
// message events. Heads must be real bytes; bodies may be virtual (video
// payload) or real (manifests). Used by the client and server transports
// and — on recorded packet payloads — by the cross-layer analysis tool.

#include <functional>
#include <string>

#include "http/message.h"
#include "mptcp/wire_data.h"

namespace mpdash {

// What went wrong with an HTTP byte stream. Framing on a raw stream is
// unrecoverable after any of these: the parser latches the error and
// ignores further input ("poisoned") instead of silently waiting for a
// head terminator that will never parse.
enum class HttpParseError {
  kNone = 0,
  kVirtualBytesInHead,   // simulated payload bytes where a head must be
  kMalformedStartLine,   // bad request/status line
  kMalformedHeader,      // header line without a colon
  kEmptyHead,            // head terminator with no content
  kBadContentLength,     // non-numeric or negative Content-Length
};

const char* to_string(HttpParseError e);

class HttpStreamParser {
 public:
  enum class Mode { kRequests, kResponses };

  struct Callbacks {
    // Exactly one of these fires per message head, matching the mode.
    std::function<void(const HttpRequest&)> on_request;
    std::function<void(const HttpResponse&)> on_response_head;
    // Body progress: `count` bytes arrived, of which `real` holds any
    // actual content (manifest text); may fire many times per message.
    std::function<void(Bytes count, const std::string& real)> on_body;
    std::function<void()> on_message_complete;
    // Fires once, when the stream first turns out to be malformed.
    std::function<void(HttpParseError, const std::string& detail)> on_error;
  };

  HttpStreamParser(Mode mode, Callbacks callbacks);

  // Feeds the next in-order stream chunk. On malformed input the parser
  // reports through on_error (once) and discards everything from then on;
  // it never throws.
  void consume(const WireData& data);

  bool mid_message() const { return state_ != State::kHead || !head_buf_.empty(); }
  HttpParseError error() const { return error_; }
  bool ok() const { return error_ == HttpParseError::kNone; }

 private:
  enum class State { kHead, kBody, kError };

  void parse_head(const std::string& head);
  void finish_message();
  void fail(HttpParseError e, const std::string& detail);

  Mode mode_;
  Callbacks cb_;
  State state_ = State::kHead;
  std::string head_buf_;
  Bytes body_remaining_ = 0;
  HttpParseError error_ = HttpParseError::kNone;
};

}  // namespace mpdash
