// api::dispatcher: typed request dispatch, decoupled from any transport.
//
// Every request takes one path: the line is parsed once (json_parse, then
// the typed grammar in api/types.h) and the typed request is dispatched.
// The entry points differ only in where the answer goes:
//   * handle_line() -- one NDJSON request line in, exactly one
//     single-line JSON response out (trailing newline included);
//   * answer() -- the same, plus the verdict (ok, error code), so the
//     HTTP gateway picks its status without re-parsing the response;
//   * handle_stream() -- responses go to a line_sink, and "subscribe"
//     pushes the job's event lines after its ack (stdio and TCP).
// None of them throws: every failure, from malformed JSON up, becomes an
// "ok": false response echoing the request's "id" (null when absent or
// unparseable). They are safe to call from any number of transport
// threads concurrently (one thread per TCP/HTTP connection; the stdio
// loop from one).
//
// Sweep and refine requests become jobs on the scheduler. Synchronous
// requests submit, wait, and render the completed job in the wire shape
// the committed daemon golden (tools/service_smoke/) pins byte for byte;
// a synchronous sweep the store can answer at full provenance is served
// inline at admission instead (no job, same bytes). "async": true
// requests return
//   {"id": ..., "kind": "sweep", "ok": true, "async": true, "job": N,
//    "state": "queued"}
// immediately; the result is fetched (or awaited) with status requests,
// whose responses carry a "trace" span object once the job ran.
// status/cancel/stats/flush/metrics are served inline -- they inspect
// shared state and never queue. flush persists through the service's
// durable store (persisted: false when the service is memory-only).
//
// Determinism: the "result" member of sweep/refine responses is a pure
// function of (service configuration, request) -- cache provenance counts
// live only in the wrapper -- so answers served cold, from memory, from a
// recovered durable store, topped up, batched with other jobs, or over
// any transport are byte-identical there, at any worker count.
#pragma once

#include <string>

#include "api/job_scheduler.h"
#include "api/types.h"
#include "service/sweep_service.h"

namespace nwdec::api {

/// Where a streaming request's response lines go: a transport-owned sink
/// (socket writer, ostream). write() returns false when the peer is gone
/// -- the producer must stop pumping then.
class line_sink {
 public:
  virtual ~line_sink() = default;
  virtual bool write(const std::string& line) = 0;
};

/// One answered request: the response line and the verdict it renders,
/// so a transport can map the outcome (an HTTP status) without parsing
/// its own response back. `line` is empty when a streaming "subscribe"
/// already wrote everything to its sink.
struct reply {
  std::string line;
  bool ok = true;
  std::string code;  ///< the error's "code" member ("" when it has none)
};

class dispatcher {
 public:
  /// The scheduler's settings: a dispatcher adds none of its own.
  using options = job_scheduler::options;

  explicit dispatcher(service::sweep_service& service);
  dispatcher(service::sweep_service& service, options opts);

  /// One request line in, one response line out; "subscribe" is refused
  /// (there is nowhere to push its events).
  std::string handle_line(const std::string& line);

  /// handle_line() with the verdict attached (the HTTP gateway's entry).
  reply answer(const std::string& line);

  /// handle_line() plus push delivery: every response goes to the sink,
  /// and a "subscribe" request writes its ack and then the job's
  /// lifecycle events until the stream ends (or the sink's write fails).
  void handle_stream(const std::string& line, line_sink& sink);

  job_scheduler& scheduler() { return scheduler_; }

 private:
  /// The one request path: parses the line once, then dispatches the
  /// typed request. Without a sink a "subscribe" is refused.
  reply dispatch(const std::string& line, line_sink* sink);
  /// Shared sweep/refine submission path (async reply or synchronous
  /// wait; request_id retries report their existing job; fully-cached
  /// synchronous sweeps are answered inline by the scheduler's
  /// store-aware admission).
  reply submit_job(const request& parsed, const char* kind);
  reply handle(const sweep_request& request);
  reply handle(const refine_request& request);
  reply handle(const status_request& request);
  reply handle(const cancel_request& request);
  reply handle(const stats_request& request);
  reply handle(const flush_request& request);
  reply handle(const metrics_request& request);
  /// "subscribe" without a sink: refused.
  reply handle(const subscribe_request& request);
  /// "subscribe" with a sink: ack line, then one line per event until
  /// terminal / overflow / drain / sink failure.
  reply subscribe(const subscribe_request& request, line_sink& sink);
  /// Renders a terminal job in the legacy synchronous wire shape.
  reply sync_response(const json_value& id, const job_result& job);

  service::sweep_service& service_;
  job_scheduler scheduler_;
};

/// The "ok": false response every failure renders to. A non-empty `code`
/// appends a machine-readable "code" member after "error" (the legacy
/// shape is a byte-prefix of the coded one, so old clients keep parsing).
/// The code vocabulary, by retry class:
///   * retryable as-is, after backoff -- "overloaded" (queue bound shed
///     the job);
///   * retryable on a fresh connection -- "idle_timeout" (transport
///     closed an idle connection), "read_timeout" (a request line was
///     left incomplete past the read deadline), "too_many_connections"
///     (the accept cap shed the connection), "draining" (the daemon
///     shut down before the job could run -- retry lands on the
///     restarted instance);
///   * NOT retryable as-is -- "timed_out" (the job's own deadline
///     expired), "payload_too_large" (request line over the transport's
///     byte cap), "request_id_conflict" (idempotency key reused with a
///     different payload).
/// api::resilient_client implements exactly this classification.
std::string error_response_json(const json_value& id,
                                const std::string& what,
                                const std::string& code = "");

}  // namespace nwdec::api
