// api::job_scheduler: the concurrent execution stage between transports
// and the sweep service.
//
// submit() turns a typed sweep/refine request into a queued job and
// returns its id immediately; N worker threads drain the queue in
// (priority desc, id asc) order. The scheduler is the service's batching
// stage: when a worker picks up a sweep job it collects the maximal
// sweep prefix of that order -- every queued sweep job up to the first
// queued non-sweep, so batching never lets a lower-priority sweep
// overtake a higher-priority refine -- into one sweep_service
// evaluation, so concurrent clients share one engine run (store hits are
// served inside that same pass, misses shard across the engine's
// workers, and duplicate points across jobs compute once). A job whose
// request only fails inside the engine is re-evaluated alone so its
// diagnostic never poisons the jobs it was batched with. Refine jobs run
// one per worker, every probe going through the shared store.
//
// Determinism: a job's result payload is a pure function of (service
// configuration, request) -- the sweep service's evaluation semantics --
// so results are bit-identical at any worker count and under any
// coalescing; only the wrapper's provenance counters (cached / computed /
// topped_up) depend on what the store held when the batch ran.
//
// Lifecycle: cancel() of a queued job removes it; of a running job it
// sets the cooperative cancel flag (state "cancelling") that the
// evaluation observes between refine probes and Monte-Carlo batches --
// the job then terminates cancelled (or done/failed if it beat the flag).
// Deadlines (request "timeout_ms") are enforced at three points: a queued
// job past its deadline is finished timed_out instead of run, a running
// job's checks abort it, and a synchronous wait() times the job out at
// the deadline even when no worker ever picked it up. The queue is
// bounded (options.max_queued): past the bound submit() sheds load by
// throwing overloaded_error instead of growing silently. Finished jobs
// are retained for status/result fetches up to options.retain_finished,
// then forgotten oldest-first; wait() blocks until a job is terminal.
// A synchronous submission's own connection collects its job instead
// (collect()), which releases the result of a done job that no retry can
// name once it is delivered.
// The destructor stops the workers after their current jobs;
// still-queued jobs are dropped (the daemon drains synchronous requests
// before exit).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/event_bus.h"
#include "api/job.h"
#include "api/types.h"
#include "service/sweep_service.h"

namespace nwdec::api {

/// What submit_or_serve() accomplished: either a job was enqueued (or an
/// existing one answered the retry), or the sweep was served inline from
/// the store without a job ever existing.
struct submit_outcome {
  /// The job id; 0 when the request was answered inline (no job).
  std::uint64_t job = 0;
  /// The dedup window recognized this request_id (existing job, or an
  /// earlier inline answer re-served).
  bool deduplicated = false;
  /// Set iff the sweep was answered inline: the full response, every
  /// point a store hit.
  std::shared_ptr<const service::sweep_response> inline_sweep;
};

class job_scheduler {
 public:
  struct options {
    /// Worker threads draining the job queue (0 = thread_budget()). More
    /// workers mean more concurrent engine runs (the engine itself is
    /// thread-safe); results never depend on the count.
    std::size_t workers = 1;
    /// Finished jobs retained for status/result fetches.
    std::size_t retain_finished = 1024;
    /// Queue bound: submissions past this many waiting jobs are shed with
    /// overloaded_error (0 = unbounded). Running jobs do not count.
    std::size_t max_queued = 4096;
    /// A job whose submit->terminal wall exceeds this is logged as a
    /// `slow_request` warn record with its full span breakdown
    /// (0 = never log). Strictly out-of-band, like all tracing.
    std::size_t slow_request_ms = 1000;
    /// request_id idempotency keys remembered for duplicate-submit
    /// detection: the most recent this many submissions carrying a
    /// request_id are deduplicated (oldest keys evicted first). 0
    /// disables the window entirely (every submit enqueues).
    std::size_t dedup_window = 4096;
  };

  explicit job_scheduler(service::sweep_service& service);
  job_scheduler(service::sweep_service& service, options opts);
  ~job_scheduler();
  job_scheduler(const job_scheduler&) = delete;
  job_scheduler& operator=(const job_scheduler&) = delete;

  /// Queues a sweep or refine request and returns the job id; throws
  /// invalid_argument_error for the other request kinds (they are served
  /// inline by the dispatcher, not queued) and overloaded_error when the
  /// queue bound sheds the submission (no job is created then).
  ///
  /// Idempotency: a request carrying header.request_id is checked against
  /// the dedup window FIRST -- a remembered key with an identical payload
  /// returns the existing job's id (no new job, no shedding;
  /// `*deduplicated` is set true when the caller passed it), and a
  /// remembered key with a different payload throws conflict_error
  /// without side effects. Exactly-once submission semantics for clients
  /// that retry after a connection reset ate the response.
  std::uint64_t submit(request job, bool* deduplicated = nullptr);

  /// submit() plus store-aware admission: with `allow_inline` (the
  /// dispatcher sets it for SYNCHRONOUS sweep submissions), a sweep whose
  /// every point the store already serves at sufficient provenance
  /// (service::sweep_service::try_serve_cached) is answered inline --
  /// no worker occupied, no job id allocated -- and the outcome carries
  /// the response instead of a job. The request_id dedup window covers
  /// inline answers too: a retried key re-serves inline (store counters
  /// move again -- provenance counters were never part of the purity
  /// contract), and a conflicting payload still throws. Async
  /// submissions and refines always enqueue (they need a job id).
  submit_outcome submit_or_serve(request job, bool allow_inline);

  /// Attaches an event subscription to a job's lifecycle stream
  /// (event_bus semantics: replay from `from_seq`, then live events;
  /// subscribe-after-terminal replays through the terminal event).
  /// nullptr for an unknown -- or already-forgotten -- job.
  std::shared_ptr<event_subscription> subscribe(std::uint64_t job,
                                                std::uint64_t from_seq);

  /// Drain hook (the socket chassis calls it when shutdown begins):
  /// pushes a closing "draining" event to every live event subscriber
  /// and closes their feeds (event_bus::close_all), so subscription-
  /// pumping connection threads exit promptly on SIGTERM.
  void close_event_streams();

  /// Snapshot of a job (result payload included once done); nullopt for
  /// an unknown -- or already-forgotten -- id.
  std::optional<job_result> inspect(std::uint64_t id) const;

  /// Blocks until the job is terminal (or its deadline passes: a job
  /// still queued then is finished timed_out), then returns its
  /// snapshot; nullopt for an unknown id.
  std::optional<job_result> wait(std::uint64_t id);

  /// wait() for the connection that submitted a synchronous request. Its
  /// response carries the result and the job id is never sent, so once a
  /// done job submitted without a request_id is collected, the scheduler
  /// keeps only what status still returns for it (state, progress,
  /// trace): the record, result payload and event stream are released,
  /// so status reports it done with "result_delivered" instead of a
  /// result, and subscribe answers unknown. A job with a request_id keeps
  /// its result (a retry after a lost response re-fetches it through the
  /// dedup window), and a failed one keeps its error.
  std::optional<job_result> collect(std::uint64_t id);

  /// Cancels a queued job immediately; flags a running job for
  /// cooperative cancellation (it stops at its next between-batch check).
  /// See cancel_outcome for the four possible answers.
  cancel_outcome cancel(std::uint64_t id);

  /// Cancels every non-terminal job at once: queued jobs finish
  /// cancelled immediately, running jobs get the cooperative flag.
  /// Returns how many jobs were touched. The socket chassis calls this
  /// when its drain window expires, so a connection thread blocked in a
  /// synchronous wait() is released instead of pinning the process past
  /// its drain budget.
  std::size_t cancel_all();

  /// Blocks until no job is queued or running, or until `deadline`;
  /// true when the scheduler went idle. The socket chassis waits on it
  /// inside its drain window (and cancel_all()s when it returns false).
  bool wait_idle(std::chrono::steady_clock::time_point deadline);

  scheduler_stats stats() const;

 private:
  struct job_record;

  std::optional<job_result> wait(std::uint64_t id, bool collecting);
  void worker_loop();
  void run_sweep_batch(std::unique_lock<std::mutex>& lock);
  void run_refine(std::unique_lock<std::mutex>& lock,
                  const std::shared_ptr<job_record>& job);
  void finish(job_record& job, job_state state);
  void trim_locked();
  void sync_gauges_locked();
  /// Marks a job running and records its queue-wait span/metrics.
  void start_running_locked(job_record& job);
  job_result snapshot(const job_record& job) const;
  /// inspect()'s answer for a collected job; nullopt for an unknown id.
  std::optional<job_result> delivered_snapshot(std::uint64_t id) const;

  service::sweep_service& service_;
  options options_;
  std::uint64_t trace_seed_ = 0;  ///< per-process anchor trace ids mix in

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue became non-empty
  std::condition_variable done_cv_;  ///< waiters: some job turned terminal
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  /// (-priority, id): begin() is the highest-priority, oldest job.
  std::set<std::pair<int, std::uint64_t>> queue_;
  std::map<std::uint64_t, std::shared_ptr<job_record>> jobs_;
  /// What status still returns for a done job its synchronous submitter
  /// collected (see collect()): no payload, no event stream.
  struct delivered_job {
    int priority = 0;
    bool sweep_kind = true;
    std::size_t progress_done = 0;
    std::size_t progress_total = 0;
    job_trace trace;
  };
  /// Collected jobs, by id; they keep their slot in the retention ring.
  std::unordered_map<std::uint64_t, delivered_job> delivered_;
  std::deque<std::uint64_t> finished_;  ///< retention ring, oldest first
  scheduler_stats stats_;
  /// The request_id dedup window: key -> (job id, canonical payload).
  /// The payload is kept verbatim (not hashed) so a key collision with
  /// different work is detected exactly, never probabilistically.
  struct dedup_entry {
    std::uint64_t job = 0;
    std::string payload;
  };
  std::map<std::string, dedup_entry> dedup_;
  std::deque<std::string> dedup_order_;  ///< eviction ring, oldest first
  /// Per-job lifecycle event streams. Lock order: mutex_ -> bus mutex;
  /// the bus never calls back into the scheduler.
  event_bus events_;

  std::vector<std::thread> workers_;
};

}  // namespace nwdec::api
