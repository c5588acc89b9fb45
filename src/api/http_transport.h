// api::http_transport -- the HTTP/1.1 front door of the nwdec service,
// on the same socket_server chassis (and the same tcp_limits bounds) as
// the raw NDJSON transport.
//
// Routes:
//   * POST /v1/rpc -- the NDJSON protocol carried verbatim: the body is
//     one or more request lines, each dispatched exactly as the raw
//     socket would (same dispatcher, byte-identical response lines). A
//     single-line body answers with the HTTP status mapped from the
//     dispatcher's verdict on it (its error "code", via
//     http::status_for_code; 503 carries Retry-After: 1) and
//     Content-Type: application/json; a multi-line
//     body always answers 200 with application/x-ndjson (per-line
//     statuses live in the lines themselves, exactly like the socket).
//   * GET /v1/jobs/{id}/events[?from=N] -- the job's lifecycle event
//     stream as Server-Sent Events (Content-Type: text/event-stream,
//     chunked), pumped by the same loop as the NDJSON "subscribe" verb
//     (event_subscription::pump) and reached through the dispatcher's
//     scheduler: one frame per event, `id:` = the event's sequence
//     number, `event:` = its type, `data:` = the exact NDJSON event
//     line (newline stripped). The terminal frame's "result" payload is
//     byte-identical to a status {"wait": true} response's. The stream
//     ends (zero-length chunk, connection close) after the terminal
//     event -- or with a draining event when the daemon shuts down.
//     404 for an unknown/forgotten job; "from" resumes after a seq.
//   * GET /metrics -- the Prometheus text exposition of the util/metrics
//     registry (the daemon's one scrape endpoint).
//
// Transport-level answers (before any route): malformed request -> 400,
// Transfer-Encoding body -> 411, request over max_request_bytes -> 413
// (connection closes), unknown path -> 404, wrong method -> 405, a
// request cut off by read_deadline_ms -> 408 (connection closes), idle
// past idle_timeout_ms -> silent close (connection_reader's clocks),
// over-cap accept -> 503 with Retry-After (the chassis sheds it).
// Keep-alive follows HTTP/1.1 semantics; during drain every response
// closes (Connection: close) so peers re-connect elsewhere.
#pragma once

#include <cstdint>
#include <string>

#include "api/http.h"
#include "api/socket_server.h"

namespace nwdec::api {

class http_transport final : public socket_server {
 public:
  http_transport(std::uint16_t port, int backlog, tcp_limits limits);

 protected:
  void serve_connection(int client, dispatcher& dispatch) override;
  std::string shed_response() const override;

 private:
  /// Serves one parsed request; returns false when the connection must
  /// close (error, explicit Connection: close, SSE stream ended).
  bool handle_request(int client, const http::request& request,
                      dispatcher& dispatch);
  bool serve_rpc(int client, const http::request& request,
                 dispatcher& dispatch, bool keep_alive);
  bool serve_metrics(int client, const http::request& request,
                     bool keep_alive);
  /// The SSE route: the job's event feed in SSE framing; always ends the
  /// connection.
  void serve_events(int client, const http::request& request,
                    dispatcher& dispatch, std::uint64_t job);
};

}  // namespace nwdec::api
