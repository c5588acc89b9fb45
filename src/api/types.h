// nwdec::api -- the typed request surface of the nwdec service.
//
// Every request the daemon accepts is one of the structs below; parsing
// from the NDJSON wire form and serializing back are centralized here, so
// protocol fields are named in exactly one place. parse_request and
// write_request are inverses: write(parse(write(x))) == write(x) byte for
// byte, and the round trip is tested.
//
// Request grammar (one JSON object per line; every request may carry
// "id" (echoed verbatim in the response), "async" (submit and return the
// job id immediately -- sweep/refine only), "priority" (higher runs
// first; default 0), "timeout_ms" (sweep/refine deadline in
// milliseconds from submission; 0 = none. A job whose deadline expires
// while queued, or that a running evaluation observes between batches,
// terminates in the "timed_out" state and synchronous requests get an
// error response with "code": "timed_out"), and "request_id" (a
// client-chosen idempotency key for sweep/refine, 1..128 visible ASCII
// characters. Submitting a request whose request_id matches a recent
// submission with the SAME payload returns the EXISTING job instead of
// enqueueing a duplicate -- the safe way to retry a submit after a
// connection reset that ate the response. The scheduler remembers the
// most recent submissions in a bounded window (the daemon's
// --dedup-window, default 4096 keys, oldest evicted first); reusing a
// remembered key with a DIFFERENT payload is rejected with
// "code": "request_id_conflict". Ignored by the inline kinds)):
//
//   {"id": 1, "kind": "sweep", "codes": ["TC", "BGC"], "radix": 2,
//    "lengths": [8, 10], "nanowires": [20], "sigmas_vt": [0.04, 0.05],
//    "trials": 150, "broken": 0.0, "bridge": 0.0,
//    "min_half_width": 0.01}
//     -> grid = codes x lengths x nanowires x sigmas_vt; axes with
//        platform defaults may be omitted. min_half_width > 0 asks for a
//        Wilson CI at most that wide per Monte-Carlo point: cached points
//        that miss it are topped up from their persisted (mean, trials,
//        M2) instead of recomputed (service::sweep_service semantics).
//
//   {"id": 2, "kind": "refine", "code": "BGC", "radix": 2, "length": 10,
//    "trials": 150, "sigma_low": 0.02, "sigma_high": 0.12,
//    "threshold": 0.5, "resolution": 0.001}
//     -> sigma-cliff bisection (service/refine.h).
//
//   {"id": 3, "kind": "status", "job": 7, "wait": true}
//     -> state of an async job; "wait": true blocks until the job is
//        terminal and, when it completed, carries the full result payload.
//        A synchronous job answered on its own connection (no
//        request_id) reports "result_delivered": true instead: its
//        result went out in that response.
//
//   {"id": 4, "kind": "cancel", "job": 7}
//     -> cancels a queued job; running/finished jobs report their state.
//
//   {"id": 5, "kind": "stats", "detail": true}
//     -> store/engine counters; "detail" adds the cost-class sizes,
//        eviction split, top-up count, and the job-scheduler counters.
//
//   {"id": 6, "kind": "flush", "clear": false}
//     -> compacts the daemon's durable store into its --cache snapshot
//        (before clearing, when "clear" is true); "persisted": false when
//        the daemon runs memory-only.
//
//   {"id": 7, "kind": "metrics"}
//     -> point-in-time snapshot of the observability registry
//        (util/metrics): {"counters": {...}, "gauges": {...},
//        "histograms": {...}} with byte-stable key order. The same
//        snapshot renders in Prometheus text form at GET /metrics on
//        --http-port.
//
//   {"id": 8, "kind": "subscribe", "job": 7, "from": 0}
//     -> STREAMING: after an acknowledgement line, the connection
//        receives one line per job lifecycle event ({"job": 7, "seq": N,
//        "event": "queued" | "running" | "progress" | "done" | "failed"
//        | "cancelled" | "timed_out", ...}) until the terminal event,
//        whose body carries the same result payload a
//        {"kind": "status", "wait": true} would (byte-identical
//        "result"). "from" (default 0) replays history after that
//        sequence number first -- the resume cursor after a reconnect.
//        A subscriber that cannot keep up is evicted with a final
//        {"code": "event_overflow"} event; the daemon's drain pushes a
//        final {"code": "draining"} event. Served on the streaming
//        transports (stdin loop, socket, HTTP SSE); a transport that
//        answers exactly one line per request refuses it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "codes/code_space.h"
#include "core/sweep_engine.h"
#include "fab/defects.h"
#include "service/refine.h"
#include "util/json.h"

namespace nwdec::api {

/// Fields shared by every request kind.
struct request_header {
  json_value client_id;      ///< the request's "id", echoed verbatim (null
                             ///< when absent)
  bool async_submit = false; ///< "async": return the job id immediately
  int priority = 0;          ///< higher-priority jobs run first
  /// Deadline in milliseconds from submission for sweep/refine jobs
  /// (0 = none): expired jobs terminate "timed_out" instead of running
  /// to completion. Ignored by the inline kinds (status/cancel/...).
  std::size_t timeout_ms = 0;
  /// Idempotency key for sweep/refine submissions ('' = none): retrying
  /// a submit with the same key and payload returns the existing job
  /// instead of enqueueing a duplicate; the same key with a different
  /// payload is rejected with "code": "request_id_conflict" (see the
  /// header comment). Ignored by the inline kinds.
  std::string request_id;
};

/// One "sweep" request in wire form (the grid axes exactly as the client
/// spelled them; axes() expands them into the engine grid).
struct sweep_request {
  request_header header;
  std::vector<codes::code_type> codes;
  unsigned radix = 2;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> nanowires;  ///< empty = platform default
  std::vector<double> sigmas_vt;       ///< empty = platform default
  std::size_t trials = 0;
  fab::defect_params defects{0.0, 0.0};
  /// 0 = fixed trial budget; > 0 = per-point CI target (see header).
  double min_half_width = 0.0;

  /// The engine grid; throws when codes/lengths are empty.
  core::sweep_axes axes() const;
};

/// One "refine" request (wire form of service::refine_request).
struct refine_request {
  request_header header;
  service::refine_request refinement;
};

struct status_request {
  request_header header;
  std::uint64_t job = 0;
  bool wait = false;  ///< block until the job is terminal
};

struct cancel_request {
  request_header header;
  std::uint64_t job = 0;
};

struct stats_request {
  request_header header;
  bool detail = false;  ///< add class sizes, eviction split, job counters
};

struct flush_request {
  request_header header;
  bool clear = false;
};

struct metrics_request {
  request_header header;
};

/// Attach to a job's lifecycle event stream (streaming transports only;
/// see the grammar comment). The dispatcher answers it by pumping
/// event_bus lines at the subscriber until the stream ends.
struct subscribe_request {
  request_header header;
  std::uint64_t job = 0;
  /// Replay cursor: deliver history with seq > from first (0 = from the
  /// beginning). Clients resume interrupted streams from their last
  /// seen sequence number.
  std::uint64_t from_seq = 0;
};

using request =
    std::variant<sweep_request, refine_request, status_request,
                 cancel_request, stats_request, flush_request,
                 metrics_request, subscribe_request>;

/// The request's wire kind ("sweep", "refine", ...).
const char* kind_name(const request& parsed);

/// The shared header of any request variant.
const request_header& header_of(const request& parsed);

/// Parses one request object; throws (invalid_argument_error /
/// json_parse_error and friends) on malformed input with a diagnostic the
/// dispatcher turns into an "ok": false response.
request parse_request(const json_value& root);

/// json_parse + parse_request for one NDJSON line.
request parse_request_line(const std::string& line);

/// Serializes a request in canonical wire form (default-valued optional
/// members omitted): the inverse of parse_request, and the form clients
/// are documented against.
void write_request(json_writer& json, const request& parsed);
std::string to_json(const request& parsed,
                    json_writer::style style = json_writer::style::compact);

}  // namespace nwdec::api
