#include "api/http_transport.h"

#include <cstdio>
#include <vector>

#include "api/dispatch.h"
#include "api/event_bus.h"
#include "api/transport_metrics.h"
#include "util/metrics.h"
#include "util/net.h"

namespace nwdec::api {

namespace {

// An error answered at the HTTP layer still carries the NDJSON error
// shape in its body, so a client can treat every failure uniformly.
std::string http_error(int status, const std::string& what,
                       const std::string& code = "",
                       const std::vector<std::string>& extra = {}) {
  return http::response(status, "application/json",
                        error_response_json(json_value(), what, code), false,
                        extra);
}

// One SSE frame, chunk-encoded: `id:` carries the sequence number so
// EventSource reconnects can resume, `event:` the lifecycle type, and
// `data:` the exact NDJSON event line (newline stripped) -- the SSE
// framing is transport dressing around the same bytes the raw socket
// pushes.
std::string sse_chunk(const job_event& event) {
  std::string line = event.line;
  while (!line.empty() && line.back() == '\n') line.pop_back();
  std::string frame = "id: " + std::to_string(event.seq) + "\n" +
                      "event: " + event.type + "\n" + "data: " + line +
                      "\n\n";
  char size[32];
  std::snprintf(size, sizeof(size), "%zx\r\n", frame.size());
  return size + frame + "\r\n";
}

}  // namespace

http_transport::http_transport(std::uint16_t port, int backlog,
                               tcp_limits limits)
    : socket_server(port, backlog, limits) {}

std::string http_transport::shed_response() const {
  return http_error(
      503,
      "connection limit (" + std::to_string(limits().max_connections) +
          ") reached; retry after backoff",
      "too_many_connections", {"Retry-After: 1"});
}

void http_transport::serve_connection(int client, dispatcher& dispatch) {
  connection_reader reader(client, limits());
  http::request_parser parser(limits().max_request_bytes);
  for (;;) {
    // Idle expiry closes silently (no request in flight, nothing owed);
    // a request cut off by the read deadline is answered 408 (the peer
    // started something and deserves the diagnosis).
    const connection_reader::status status = reader.next(!parser.idle());
    if (status == connection_reader::status::read_timeout) {
      net::send_all(client, http_error(408,
                                       "request incomplete past the read "
                                       "deadline; closing connection",
                                       "read_timeout"));
      return;
    }
    if (status != connection_reader::status::data) return;
    parser.consume(reader.data(), reader.size());
    while (parser.state() == http::request_parser::phase::complete) {
      if (!handle_request(client, parser.result(), dispatch)) return;
      parser.reset();  // may complete again on pipelined leftovers
      reader.request_done();
    }
    if (parser.state() == http::request_parser::phase::failed) {
      if (parser.error_status() == 413) {
        transport_metrics::get().oversized.inc();
      }
      net::send_all(
          client,
          http_error(parser.error_status(), parser.error_reason(),
                     parser.error_status() == 413 ? "payload_too_large"
                                                  : ""));
      return;
    }
  }
}

bool http_transport::handle_request(int client,
                                    const http::request& request,
                                    dispatcher& dispatch) {
  // During drain every response closes so peers reconnect to a live
  // instance instead of queueing more work on a dying one.
  const bool keep_alive = request.keep_alive && !draining();
  const std::string path = request.path();

  if (path == "/metrics") {
    if (request.method != "GET") {
      net::send_all(client,
                    http_error(405, "only GET is supported on /metrics"));
      return false;
    }
    return serve_metrics(client, request, keep_alive);
  }
  if (path == "/v1/rpc") {
    if (request.method != "POST") {
      net::send_all(client,
                    http_error(405, "only POST is supported on /v1/rpc"));
      return false;
    }
    return serve_rpc(client, request, dispatch, keep_alive);
  }
  if (path.rfind("/v1/jobs/", 0) == 0 && path.size() > 16 &&
      path.compare(path.size() - 7, 7, "/events") == 0) {
    if (request.method != "GET") {
      net::send_all(
          client, http_error(405, "only GET is supported on an event "
                                  "stream"));
      return false;
    }
    const std::string digits = path.substr(9, path.size() - 16);
    std::uint64_t job = 0;
    bool valid = !digits.empty();
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        valid = false;
        break;
      }
      job = job * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!valid) {
      net::send_all(client,
                    http_error(404, "malformed job id in '" + path + "'"));
      return false;
    }
    serve_events(client, request, dispatch, job);
    return false;  // the stream always ends the connection
  }
  net::send_all(
      client,
      http_error(404, "unknown path '" + path +
                          "' (try POST /v1/rpc, GET /v1/jobs/{id}/events, "
                          "GET /metrics)"));
  return false;
}

bool http_transport::serve_rpc(int client, const http::request& request,
                               dispatcher& dispatch, bool keep_alive) {
  // The body is the NDJSON protocol verbatim: one request per line, each
  // answered with exactly the line the raw socket would produce.
  std::vector<reply> responses;
  std::size_t cursor = 0;
  while (cursor <= request.body.size()) {
    std::size_t end = request.body.find('\n', cursor);
    if (end == std::string::npos) end = request.body.size();
    std::string line = request.body.substr(cursor, end - cursor);
    cursor = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    responses.push_back(dispatch.answer(line));
  }
  if (responses.empty()) {
    net::send_all(client,
                  http_error(400, "empty request body (expected one or "
                                  "more NDJSON request lines)"));
    return false;
  }
  if (responses.size() == 1) {
    // One request, one response: surface its error class as the HTTP
    // status so plain HTTP clients get retry semantics without parsing
    // the body. 503 carries Retry-After, matching the backoff the
    // resilient client applies to the same codes.
    const reply& only = responses.front();
    const int status = http::status_for_code(only.code, only.ok);
    std::vector<std::string> extra;
    if (status == 503) extra.push_back("Retry-After: 1");
    return net::send_all(client,
                         http::response(status, "application/json",
                                        only.line, keep_alive, extra)) &&
           keep_alive;
  }
  // A batch answers 200 + NDJSON: per-line verdicts live in the lines,
  // exactly as they do on the socket.
  std::string body;
  for (const reply& response : responses) body += response.line;
  return net::send_all(client,
                       http::response(200, "application/x-ndjson", body,
                                      keep_alive)) &&
         keep_alive;
}

bool http_transport::serve_metrics(int client, const http::request&,
                                   bool keep_alive) {
  // The uptime gauge is set at scrape time (not continuously) so every
  // value in one exposition was read at the same moment.
  metrics::registry& registry = metrics::registry::global();
  registry.get_gauge("nwdec_uptime_seconds").set(registry.uptime_seconds());
  return net::send_all(
             client,
             http::response(200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            metrics::to_prometheus(registry.snapshot()),
                            keep_alive)) &&
         keep_alive;
}

void http_transport::serve_events(int client, const http::request& request,
                                  dispatcher& dispatch, std::uint64_t job) {
  std::uint64_t from = 0;
  const std::string from_param = request.query_param("from");
  for (const char c : from_param) {
    if (c < '0' || c > '9') {
      from = 0;
      break;
    }
    from = from * 10 + static_cast<std::uint64_t>(c - '0');
  }
  const std::shared_ptr<event_subscription> events =
      dispatch.scheduler().subscribe(job, from);
  if (events == nullptr) {
    net::send_all(client,
                  http_error(404, "unknown job id " + std::to_string(job) +
                                      " (never submitted, or already "
                                      "forgotten)"));
    return;
  }
  if (!net::send_all(client,
                     "HTTP/1.1 200 OK\r\n"
                     "Content-Type: text/event-stream\r\n"
                     "Cache-Control: no-cache\r\n"
                     "Transfer-Encoding: chunked\r\n"
                     "Connection: close\r\n"
                     "\r\n")) {
    return;
  }
  const bool ended = events->pump([client](const job_event& event) {
    return net::send_all(client, sse_chunk(event));
  });
  if (ended) net::send_all(client, "0\r\n\r\n");  // chunked terminator
}

}  // namespace nwdec::api
