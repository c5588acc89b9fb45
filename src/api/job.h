// nwdec::api job model: every sweep/refine request the service accepts
// becomes a job with an id, a state, a priority, and progress -- whether
// the client waits for it synchronously (the legacy NDJSON behavior) or
// submits it asynchronously and fetches the result later.
//
// State machine:
//
//   queued ----> running ------------> done
//      |             |    \----------> failed
//      |             \--> cancelling -> cancelled | done | failed
//      |\---> cancelled               (cancel of a queued job)
//      \----> timed_out               (deadline expired; also reachable
//                                      from running/cancelling)
//
// cancelling is cooperative: the running evaluation observes the flag
// between refine probes / Monte-Carlo batches and aborts -- but an
// evaluation that completes first still finishes done (completion wins
// the race; the client asked to stop work, not to un-compute a result).
// timed_out is terminal: a queued job past its deadline never runs, a
// running job aborts at the next check.
//
// A job's `result` payload is a pure function of (service configuration,
// request): bit-identical whether it ran alone or batched with other
// jobs, at any worker count, over any transport (the sweep service's
// evaluation semantics carry the contract; only the provenance counters in
// the response wrapper depend on cache history and scheduling).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/refine.h"
#include "service/sweep_service.h"
#include "util/json.h"

namespace nwdec::api {

enum class job_state {
  queued,
  running,
  cancelling,  ///< running with a cancel request pending (cooperative)
  done,
  failed,
  cancelled,
  timed_out,  ///< the request's timeout_ms deadline expired
};

/// Wire name of a state ("queued", "running", ...).
const char* job_state_name(job_state state);

/// True for the states a job can never leave.
constexpr bool job_state_terminal(job_state state) {
  return state == job_state::done || state == job_state::failed ||
         state == job_state::cancelled || state == job_state::timed_out;
}

/// What cancel(id) accomplished.
enum class cancel_outcome {
  unknown,     ///< no such job (never submitted, or already forgotten)
  cancelled,   ///< the job was still queued and is now terminally cancelled
  cancelling,  ///< the job is running; it will stop at its next check
  finished,    ///< the job was already terminal (inspect() tells the state)
};

/// A point-in-time view of one job.
struct job_status {
  std::uint64_t id = 0;
  job_state state = job_state::queued;
  std::string kind;  ///< "sweep" | "refine"
  int priority = 0;
  /// Work units finished / total: sweep jobs count grid points (filled
  /// when the job completes), refine jobs count probes as they happen
  /// (total stays 0: bisection depth is data-dependent).
  std::size_t progress_done = 0;
  std::size_t progress_total = 0;
  std::string error;  ///< diagnostic of a failed job
};

/// Out-of-band span record of one job's execution: the `trace` object of
/// terminal `status` responses and the slow-request log. Everything here
/// observes scheduling and evaluation without steering either -- result
/// payloads stay pure functions of (config, request) while queue waits,
/// batch sizes, and span timings vary run to run.
struct job_trace {
  std::uint64_t trace_id = 0;  ///< minted at submit; unique per process
  bool ran = false;            ///< the job reached a worker (vs shed early)
  double queue_wait_seconds = 0.0;  ///< submit -> worker pickup
  double total_seconds = 0.0;       ///< submit -> terminal state
  std::size_t batch_jobs = 0;    ///< jobs coalesced into its evaluation
  std::size_t batch_points = 0;  ///< grid points across the whole batch
  /// Evaluation spans (sweep jobs: the batch's shared evaluation, or the
  /// solo rerun; refine jobs: engine_seconds = the refine wall).
  service::eval_trace spans;
};

/// Hex wire spelling of a trace id ("f07c19a2b4d3e581").
std::string format_trace_id(std::uint64_t trace_id);

/// A job snapshot plus, when the job is done, its result payload. The
/// payloads are shared immutable state (set once at completion), so a
/// snapshot is O(1) no matter how many grid points the job answered.
struct job_result {
  job_status status;
  /// Exactly one of these is set once status.state == done, by kind.
  std::shared_ptr<const service::sweep_response> sweep;
  std::shared_ptr<const service::refine_result> refined;
  /// True when the submitting sweep asked for a CI target: the response
  /// wrapper then always reports the topped_up count.
  bool report_topped_up = false;
  job_trace trace;  ///< span record (trace_id is set from submission on)
};

/// Aggregate scheduler counters (the stats endpoint's "jobs" block; the
/// bench derives the cross-request coalescence ratio from the sweep
/// batch counters).
struct scheduler_stats {
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< reached done
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t timed_out = 0;  ///< deadlines that expired (queued or running)
  std::size_t shed = 0;       ///< submissions rejected by the queue bound
  /// Submissions answered by the request_id dedup window with an EXISTING
  /// job instead of a new one (retries after a reset land here).
  std::size_t deduplicated = 0;
  /// Sweeps answered inline from the store (every point a cache hit at
  /// sufficient provenance) without occupying a worker or allocating a
  /// job id -- store-aware admission.
  std::size_t answered_inline = 0;
  std::size_t queued = 0;   ///< currently waiting
  std::size_t running = 0;  ///< currently executing (cancelling included)
  /// Cross-request batching: every batch is one sweep_service evaluation
  /// coalescing the points of `sweep_jobs_batched / sweep_batches` jobs on
  /// average (1.0 = no concurrency to exploit).
  std::size_t sweep_batches = 0;
  std::size_t sweep_jobs_batched = 0;
};

}  // namespace nwdec::api
