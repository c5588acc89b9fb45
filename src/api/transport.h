// api::transport: how request lines reach the dispatcher -- decoupled from
// what the requests mean.
//
// A transport owns one ingress (stdin, a listening socket, ...) and hands
// each request line to the api::dispatcher (api/dispatch.h), writing the
// response back to the requester. Dispatch is transport-agnostic by
// contract: the same request line produces the same response bytes over
// every transport (the CI smokes diff each against the committed golden).
//
//   * stdio_transport -- the default daemon loop: one request per stdin
//     line, one response per stdout line.
//   * tcp_transport (api/tcp_transport.h) -- a socket server handling any
//     number of concurrent connections, one thread per connection.
//   * http_transport (api/http_transport.h) -- the HTTP/1.1 gateway on
//     the same socket chassis: the protocol over POST /v1/rpc, SSE job
//     events, and the /metrics scrape.
#pragma once

#include <iosfwd>

#include "api/dispatch.h"

namespace nwdec::api {

class transport {
 public:
  virtual ~transport() = default;
  /// Serves requests until the ingress is exhausted (stdio: EOF) or
  /// shutdown is requested (tcp). Returns a process exit code.
  virtual int serve(dispatcher& dispatch) = 0;
};

/// The stdin/stdout NDJSON loop. Empty lines are skipped; every response
/// is flushed immediately so the daemon composes with pipes.
class stdio_transport final : public transport {
 public:
  stdio_transport(std::istream& in, std::ostream& out);
  int serve(dispatcher& dispatch) override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

}  // namespace nwdec::api
