#include "api/job_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>

#include "api/events.h"
#include "service/refine.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace nwdec::api {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Job lifecycle metrics; resolved once, relaxed-atomic updates after.
struct scheduler_metrics {
  metrics::counter& submitted_sweep;
  metrics::counter& submitted_refine;
  metrics::counter& completed;
  metrics::counter& failed;
  metrics::counter& cancelled;
  metrics::counter& timed_out;
  metrics::counter& shed;
  metrics::counter& deduplicated;
  metrics::counter& answered_inline;
  metrics::counter& sweep_batches;
  metrics::counter& sweep_jobs_batched;
  metrics::gauge& queued;
  metrics::gauge& running;
  metrics::histogram& queue_wait_seconds;
  metrics::histogram& duration_seconds;

  static scheduler_metrics& get() {
    static scheduler_metrics instance = [] {
      metrics::registry& reg = metrics::registry::global();
      return scheduler_metrics{
          reg.get_counter("nwdec_jobs_submitted_total", "kind=\"sweep\""),
          reg.get_counter("nwdec_jobs_submitted_total", "kind=\"refine\""),
          reg.get_counter("nwdec_jobs_completed_total"),
          reg.get_counter("nwdec_jobs_failed_total"),
          reg.get_counter("nwdec_jobs_cancelled_total"),
          reg.get_counter("nwdec_jobs_timed_out_total"),
          reg.get_counter("nwdec_jobs_shed_total"),
          reg.get_counter("nwdec_jobs_deduplicated_total"),
          reg.get_counter("nwdec_jobs_answered_inline_total"),
          reg.get_counter("nwdec_sweep_batches_total"),
          reg.get_counter("nwdec_sweep_jobs_batched_total"),
          reg.get_gauge("nwdec_jobs_queued"),
          reg.get_gauge("nwdec_jobs_running"),
          reg.get_histogram("nwdec_job_queue_wait_seconds"),
          reg.get_histogram("nwdec_job_duration_seconds")};
    }();
    return instance;
  }
};

// Counts one scheduler event in both places it is read: this instance's
// scheduler_stats (the `stats` verb) and the process-wide registry
// counter (/metrics). The stats stay per instance because the registry
// is shared by every scheduler in the process (tests and the replay
// bench run several). Callers hold the scheduler mutex, so the two agree
// exactly.
void count_event(scheduler_stats& stats,
                 std::size_t scheduler_stats::*field,
                 metrics::counter& counter, std::size_t n = 1) {
  stats.*field += n;
  counter.inc(n);
}

}  // namespace

std::string format_trace_id(std::uint64_t trace_id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buffer;
}

const char* job_state_name(job_state state) {
  switch (state) {
    case job_state::queued: return "queued";
    case job_state::running: return "running";
    case job_state::cancelling: return "cancelling";
    case job_state::done: return "done";
    case job_state::failed: return "failed";
    case job_state::cancelled: return "cancelled";
    case job_state::timed_out: return "timed_out";
  }
  return "unknown";
}

struct job_scheduler::job_record {
  std::uint64_t id = 0;
  int priority = 0;
  job_state state = job_state::queued;
  std::string kind;
  json_value client_id;
  /// Cooperative cancel flag: polled (lock-free) by the running
  /// evaluation's between-batch checks; set by cancel().
  std::atomic<bool> cancel_requested{false};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;  ///< valid iff has_deadline
  // Request forms (one is populated, by kind).
  std::vector<service::point_query> queries;  ///< sweep grid, in order
  bool report_topped_up = false;
  service::refine_request refinement;
  // Results: set exactly once at completion and immutable after, so
  // snapshots share them instead of copying every grid point.
  std::shared_ptr<const service::sweep_response> sweep;
  std::shared_ptr<const service::refine_result> refined;
  std::string error;
  std::size_t progress_done = 0;
  std::size_t progress_total = 0;
  int waiters = 0;  ///< active wait() calls; pins the record in retention
  // Tracing (out-of-band; see job_trace).
  std::chrono::steady_clock::time_point submit_time;
  job_trace trace;

  /// The cooperative check a running evaluation polls (lock-free): throws
  /// cancelled_error once cancel() flagged the job, timeout_error once its
  /// deadline has passed.
  void check_running() const {
    if (cancel_requested.load(std::memory_order_relaxed)) {
      throw cancelled_error("job cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      throw timeout_error("job deadline expired");
    }
  }
};

namespace {

// Runs a job's evaluation and maps how it ended to the job's terminal
// state: done when `work` returned, else cancelled / timed_out / failed by
// what it threw. `error` receives the diagnostic (a cancel carries none).
job_state run_to_outcome(const std::function<void()>& work,
                         std::string& error) {
  try {
    work();
    return job_state::done;
  } catch (const cancelled_error&) {
    return job_state::cancelled;
  } catch (const timeout_error& failure) {
    error = failure.what();
    return job_state::timed_out;
  } catch (const std::exception& failure) {
    error = failure.what();
    return job_state::failed;
  }
}

}  // namespace

job_scheduler::job_scheduler(service::sweep_service& service)
    : job_scheduler(service, options()) {}

job_scheduler::job_scheduler(service::sweep_service& service, options opts)
    : service_(service), options_(opts) {
  NWDEC_EXPECTS(options_.retain_finished >= 1,
                "the scheduler must retain at least one finished job");
  // Trace ids are (wall-clock anchor x job id) hashes: unique across
  // scheduler instances and restarts, and strictly out-of-band (nothing
  // deterministic ever depends on one).
  trace_seed_ = rng::counter_seed(
      0x7ace1dULL,
      static_cast<std::uint64_t>(
          std::chrono::system_clock::now().time_since_epoch().count()));
  const std::size_t workers =
      options_.workers == 0 ? thread_budget() : options_.workers;
  workers_.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

job_scheduler::~job_scheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // Release subscription pumps before joining: a connection thread
  // blocked in event_subscription::next() would otherwise only notice
  // the shutdown at its next poll timeout.
  events_.close_all();
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::uint64_t job_scheduler::submit(request parsed, bool* deduplicated) {
  const submit_outcome outcome = submit_or_serve(std::move(parsed), false);
  if (deduplicated != nullptr) *deduplicated = outcome.deduplicated;
  return outcome.job;
}

submit_outcome job_scheduler::submit_or_serve(request parsed,
                                              bool allow_inline) {
  submit_outcome outcome;
  // The idempotency payload: the request's canonical wire form with the
  // envelope members that do not change the work (the echoed "id", the
  // async flag) normalized away -- so a retry over a fresh connection
  // with a new envelope id still matches its original submission, while
  // any change to the actual work (grid, trials, priority, deadline) is
  // a different payload and conflicts.
  std::string dedup_key;
  std::string dedup_payload;
  if (options_.dedup_window > 0 &&
      (std::holds_alternative<sweep_request>(parsed) ||
       std::holds_alternative<refine_request>(parsed)) &&
      !header_of(parsed).request_id.empty()) {
    request normalized = parsed;
    std::visit(
        [](auto& r) {
          r.header.client_id = json_value();
          r.header.async_submit = false;
        },
        normalized);
    dedup_key = header_of(parsed).request_id;
    dedup_payload = to_json(normalized);
  }

  auto record = std::make_shared<job_record>();
  std::size_t timeout_ms = 0;
  if (const sweep_request* sweep = std::get_if<sweep_request>(&parsed)) {
    record->kind = "sweep";
    record->client_id = sweep->header.client_id;
    record->priority = sweep->header.priority;
    timeout_ms = sweep->header.timeout_ms;
    record->report_topped_up = sweep->min_half_width > 0.0;
    for (const core::sweep_request& point : sweep->axes().expand()) {
      record->queries.push_back({point, sweep->min_half_width});
    }
    record->progress_total = record->queries.size();
  } else if (const refine_request* refine =
                 std::get_if<refine_request>(&parsed)) {
    record->kind = "refine";
    record->client_id = refine->header.client_id;
    record->priority = refine->header.priority;
    timeout_ms = refine->header.timeout_ms;
    record->refinement = refine->refinement;
  } else {
    throw invalid_argument_error(
        "only sweep and refine requests become jobs (" +
        std::string(kind_name(parsed)) + " is served inline)");
  }

  // Both locked sections below consult the dedup window; the verdicts
  // must match exactly, so the logic lives here once. Returns the entry
  // (nullptr when the key is absent or unused); throws on a payload
  // conflict. Caller holds mutex_.
  const auto dedup_lookup_locked = [&]() -> dedup_entry* {
    if (dedup_key.empty()) return nullptr;
    const auto found = dedup_.find(dedup_key);
    if (found == dedup_.end()) return nullptr;
    if (found->second.payload != dedup_payload) {
      throw conflict_error(
          "request_id '" + dedup_key +
          "' was already used by a different request; retries must "
          "resend the original payload (or pick a fresh request_id)");
    }
    return &found->second;
  };
  // Remembers the request_id for `job` (0 = answered inline) in the
  // bounded FIFO window: once the window rolls a key out, a very late
  // retry becomes a fresh job -- which is safe, just not free, because
  // the result store still answers its points from cache. Caller holds
  // mutex_.
  const auto remember_locked = [&](std::uint64_t job) {
    dedup_.emplace(dedup_key, dedup_entry{job, dedup_payload});
    dedup_order_.push_back(dedup_key);
    while (dedup_order_.size() > options_.dedup_window) {
      dedup_.erase(dedup_order_.front());
      dedup_order_.pop_front();
    }
  };

  // Phase 1 (locked): idempotent retry detection comes FIRST -- before
  // the queue bound and before the store probe -- because answering a
  // retry with its existing job creates no new work: shedding it would
  // punish exactly the client the dedup window exists to protect. An
  // entry with job == 0 marks a request answered inline earlier; the
  // retry falls through to be answered inline again (or enqueued, for
  // an async retry that needs a job id).
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    NWDEC_EXPECTS(!stopping_, "the job scheduler is shutting down");
    if (const dedup_entry* entry = dedup_lookup_locked();
        entry != nullptr && entry->job != 0) {
      count_event(stats_, &scheduler_stats::deduplicated,
                  scheduler_metrics::get().deduplicated);
      outcome.job = entry->job;
      outcome.deduplicated = true;
      return outcome;
    }
  }

  // Phase 2 (unlocked): store-aware admission. A synchronous sweep whose
  // every point the store already answers never needs a worker or a job
  // id -- the probe either serves the whole response (hit counters and
  // LRU recency moving exactly as the batched path would) or declines
  // with no side effects. Probing outside mutex_ keeps slow store passes
  // off the submit path of other clients.
  if (allow_inline && record->kind == "sweep" && !record->queries.empty()) {
    std::optional<service::sweep_response> served =
        service_.try_serve_cached(record->queries);
    if (served.has_value()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      NWDEC_EXPECTS(!stopping_, "the job scheduler is shutting down");
      // Remember the inline answer under its request_id with job 0, so a
      // retry is recognized (deduplicated) instead of conflicting -- and
      // re-served inline, which is idempotent: the payload is a pure
      // function of (config, request). A concurrent identical submit may
      // have raced a REAL job in while we probed; answer the retry with
      // that job's id instead, like any other dedup hit.
      if (const dedup_entry* entry = dedup_lookup_locked();
          entry != nullptr) {
        outcome.deduplicated = true;
        if (entry->job != 0) {
          count_event(stats_, &scheduler_stats::deduplicated,
                      scheduler_metrics::get().deduplicated);
          outcome.job = entry->job;
          return outcome;
        }
        count_event(stats_, &scheduler_stats::deduplicated,
                    scheduler_metrics::get().deduplicated);
      } else if (!dedup_key.empty()) {
        remember_locked(0);
      }
      count_event(stats_, &scheduler_stats::answered_inline,
                  scheduler_metrics::get().answered_inline);
      outcome.inline_sweep = std::make_shared<const service::sweep_response>(
          std::move(*served));
      return outcome;
    }
  }

  // Phase 3 (locked): enqueue. The dedup window is re-checked because
  // phase 2 ran unlocked: a concurrent identical submit may have created
  // the job already (answer with it), and a key remembered as an inline
  // answer (job 0) is upgraded in place to point at the new job so later
  // retries keep converging on one submission.
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    NWDEC_EXPECTS(!stopping_, "the job scheduler is shutting down");
    dedup_entry* existing = dedup_lookup_locked();
    if (existing != nullptr && existing->job != 0) {
      count_event(stats_, &scheduler_stats::deduplicated,
                  scheduler_metrics::get().deduplicated);
      outcome.job = existing->job;
      outcome.deduplicated = true;
      return outcome;
    }
    // Load shedding: a bounded queue turns overload into an explicit,
    // retryable error instead of unbounded memory growth and ever-worse
    // latency. Shed before allocating an id so rejected submissions
    // leave no trace beyond the counter.
    if (options_.max_queued > 0 && queue_.size() >= options_.max_queued) {
      count_event(stats_, &scheduler_stats::shed,
                  scheduler_metrics::get().shed);
      throw overloaded_error("job queue is full (" +
                             std::to_string(options_.max_queued) +
                             " jobs waiting); retry later");
    }
    record->submit_time = std::chrono::steady_clock::now();
    if (timeout_ms > 0) {
      record->has_deadline = true;
      record->deadline =
          record->submit_time + std::chrono::milliseconds(timeout_ms);
    }
    id = next_id_++;
    record->id = id;
    record->trace.trace_id = rng::counter_seed(trace_seed_, id);
    if (existing != nullptr) {
      existing->job = id;
    } else if (!dedup_key.empty()) {
      remember_locked(id);
    }
    jobs_.emplace(id, record);
    queue_.emplace(-record->priority, id);
    scheduler_metrics& metrics = scheduler_metrics::get();
    count_event(stats_, &scheduler_stats::submitted,
                record->kind == "sweep" ? metrics.submitted_sweep
                                        : metrics.submitted_refine);
    publish_event_locked(*record, "queued", false,
                         json_fragment([&](json_writer& json) {
                           json.field("kind", record->kind);
                           json.field("priority", record->priority);
                         }));
    sync_gauges_locked();
  }
  work_cv_.notify_one();
  outcome.job = id;
  return outcome;
}

std::shared_ptr<event_subscription> job_scheduler::subscribe(
    std::uint64_t job, std::uint64_t from_seq) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (jobs_.find(job) == jobs_.end()) return nullptr;
  return events_.subscribe(job, from_seq);
}

void job_scheduler::close_event_streams() { events_.close_all(); }

// Caller holds mutex_ (the documented scheduler -> bus lock order; the
// bus never calls back into the scheduler).
void job_scheduler::publish_event_locked(const job_record& job,
                                         const char* type, bool terminal,
                                         std::string body) {
  events_.publish(job.id, type, terminal, std::move(body));
}

job_result job_scheduler::snapshot(const job_record& job) const {
  job_result result;
  result.status.id = job.id;
  result.status.state = job.state;
  result.status.kind = job.kind;
  result.status.priority = job.priority;
  result.status.progress_done = job.progress_done;
  result.status.progress_total = job.progress_total;
  result.status.error = job.error;
  result.client_id = job.client_id;
  result.report_topped_up = job.report_topped_up;
  result.trace = job.trace;
  if (job.state == job_state::done) {
    result.sweep = job.sweep;
    result.refined = job.refined;
  }
  return result;
}

std::optional<job_result> job_scheduler::inspect(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = jobs_.find(id);
  if (found == jobs_.end()) return std::nullopt;
  return snapshot(*found->second);
}

std::optional<job_result> job_scheduler::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto found = jobs_.find(id);
  if (found == jobs_.end()) return std::nullopt;
  const std::shared_ptr<job_record> job = found->second;
  ++job->waiters;  // pins the record against retention trimming
  // stopping_ releases the wait too: a scheduler being destroyed will
  // never run the job, and a waiter blocked past the destructor would be
  // waiting on a destroyed condition variable. The caller then sees the
  // job in its non-terminal state and must treat it as unserved.
  const auto terminal = [&] {
    return stopping_ || job_state_terminal(job->state);
  };
  if (job->has_deadline) {
    if (!done_cv_.wait_until(lock, job->deadline, terminal) &&
        job->state == job_state::queued) {
      // Deadline passed with the job still waiting: time it out here --
      // with every worker busy no one else would until a worker finally
      // popped it. A running job instead times itself out at its next
      // cooperative check, so just keep waiting for that.
      queue_.erase({-job->priority, job->id});
      finish(*job, job_state::timed_out);
      done_cv_.notify_all();
    }
  }
  done_cv_.wait(lock, terminal);
  job_result result = snapshot(*job);
  --job->waiters;
  trim_locked();  // catch up on trims this pin deferred
  return result;
}

cancel_outcome job_scheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto found = jobs_.find(id);
  if (found == jobs_.end()) return cancel_outcome::unknown;
  job_record& job = *found->second;
  if (job.state == job_state::queued) {
    queue_.erase({-job.priority, id});
    finish(job, job_state::cancelled);
    done_cv_.notify_all();
    return cancel_outcome::cancelled;
  }
  if (job.state == job_state::running ||
      job.state == job_state::cancelling) {
    job.cancel_requested.store(true, std::memory_order_relaxed);
    job.state = job_state::cancelling;
    return cancel_outcome::cancelling;
  }
  return cancel_outcome::finished;
}

std::size_t job_scheduler::cancel_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t touched = 0;
  // Queued jobs first. finish() runs the retention trim, which mutates
  // jobs_, so collect the ids before finishing any of them.
  std::vector<std::uint64_t> waiting;
  waiting.reserve(queue_.size());
  for (const auto& [neg_priority, id] : queue_) waiting.push_back(id);
  queue_.clear();
  for (const std::uint64_t id : waiting) {
    const auto found = jobs_.find(id);
    if (found == jobs_.end()) continue;
    finish(*found->second, job_state::cancelled);
    ++touched;
  }
  for (const auto& entry : jobs_) {
    job_record& job = *entry.second;
    if (job.state == job_state::running) {
      job.cancel_requested.store(true, std::memory_order_relaxed);
      job.state = job_state::cancelling;
      ++touched;
    }
  }
  if (touched > 0) done_cv_.notify_all();
  return touched;
}

bool job_scheduler::wait_idle(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  return done_cv_.wait_until(lock, deadline, [this] {
    return queue_.empty() && stats_.running == 0;
  });
}

scheduler_stats job_scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  scheduler_stats out = stats_;
  out.queued = queue_.size();
  return out;
}

// Caller holds mutex_. Runs the retention policy; a record pinned by an
// active wait() blocks the scan (wait() re-runs it on release).
void job_scheduler::trim_locked() {
  while (finished_.size() > options_.retain_finished) {
    const auto oldest = jobs_.find(finished_.front());
    if (oldest != jobs_.end() && oldest->second->waiters > 0) break;
    if (oldest != jobs_.end()) {
      // Forgetting a job drops its event history too (closing any
      // subscriber still attached): subscribe() answers for exactly the
      // jobs status answers for.
      events_.forget(oldest->first);
      jobs_.erase(oldest);
    }
    finished_.pop_front();
  }
}

// Caller holds mutex_. Mirrors the live queue/running levels into the
// metrics gauges (every mutation site calls this, so the gauges track
// scheduler_stats exactly).
void job_scheduler::sync_gauges_locked() {
  scheduler_metrics::get().queued.set(static_cast<double>(queue_.size()));
  scheduler_metrics::get().running.set(static_cast<double>(stats_.running));
}

// Caller holds mutex_. Marks a popped job running and closes its
// queue-wait span.
void job_scheduler::start_running_locked(job_record& job) {
  job.state = job_state::running;
  ++stats_.running;
  job.trace.ran = true;
  job.trace.queue_wait_seconds =
      seconds_between(job.submit_time, std::chrono::steady_clock::now());
  scheduler_metrics::get().queue_wait_seconds.observe(
      job.trace.queue_wait_seconds);
  publish_event_locked(job, "running", false, "");
  sync_gauges_locked();
}

// Caller holds mutex_. Transitions a job into a terminal state and runs
// the retention policy.
void job_scheduler::finish(job_record& job, job_state state) {
  if (job.state == job_state::running ||
      job.state == job_state::cancelling) {
    --stats_.running;
  }
  job.state = state;
  scheduler_metrics& metrics = scheduler_metrics::get();
  switch (state) {
    case job_state::done:
      count_event(stats_, &scheduler_stats::completed, metrics.completed);
      break;
    case job_state::failed:
      count_event(stats_, &scheduler_stats::failed, metrics.failed);
      break;
    case job_state::cancelled:
      count_event(stats_, &scheduler_stats::cancelled, metrics.cancelled);
      break;
    case job_state::timed_out:
      count_event(stats_, &scheduler_stats::timed_out, metrics.timed_out);
      break;
    default: break;
  }
  // A finished job answers from its result or its error; retention keeps
  // the record, so drop the request grid it no longer needs.
  std::vector<service::point_query>().swap(job.queries);
  job.trace.total_seconds =
      seconds_between(job.submit_time, std::chrono::steady_clock::now());
  metrics.duration_seconds.observe(job.trace.total_seconds);
  if (options_.slow_request_ms > 0 &&
      job.trace.total_seconds * 1000.0 >=
          static_cast<double>(options_.slow_request_ms)) {
    logging::event(logging::level::warn, "scheduler", "slow_request")
        .field("trace_id", format_trace_id(job.trace.trace_id))
        .field("job", job.id)
        .field("kind", job.kind)
        .field("state", job_state_name(state))
        .field("total_ms", job.trace.total_seconds * 1000.0)
        .field("queue_wait_ms", job.trace.queue_wait_seconds * 1000.0)
        .field("engine_ms", job.trace.spans.engine_seconds * 1000.0);
  }
  // The terminal event goes out BEFORE the retention trim below so the
  // stream can never be forgotten with its ending unpublished. A done
  // job's body is rendered lazily: with no subscriber ever attaching,
  // the result payload is never serialized a second time.
  if (state == job_state::done) {
    events_.publish_lazy(
        job.id, "done", true,
        [payload = result_payload{job.kind, job.sweep, job.refined,
                                  job.report_topped_up}] {
          return json_fragment([&payload](json_writer& json) {
            write_result_fields(json, payload);
          });
        });
  } else if (state == job_state::failed || state == job_state::timed_out) {
    const std::string& error = job.error;
    publish_event_locked(job, job_state_name(state), true,
                         json_fragment([&error](json_writer& json) {
                           json.field("error", error);
                         }));
  } else {
    publish_event_locked(job, job_state_name(state), true, "");
  }
  finished_.push_back(job.id);
  trim_locked();
  sync_gauges_locked();
}

void job_scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    const std::shared_ptr<job_record> head = jobs_.at(queue_.begin()->second);
    if (head->has_deadline &&
        std::chrono::steady_clock::now() >= head->deadline) {
      // Expired while waiting: never spend engine time on a job whose
      // client already gave up on it.
      queue_.erase(queue_.begin());
      finish(*head, job_state::timed_out);
      done_cv_.notify_all();
      continue;
    }
    if (head->kind == "sweep") {
      run_sweep_batch(lock);
    } else {
      queue_.erase(queue_.begin());
      start_running_locked(*head);
      run_refine(lock, head);
    }
    done_cv_.notify_all();
  }
}

// Caller holds `lock`. The batching stage: drains the maximal sweep
// PREFIX of the priority-ordered queue into one sweep_service evaluation
// (stopping at the first queued non-sweep job, so a higher-priority
// refine is never overtaken by lower-priority sweeps riding the batch);
// concurrent clients thus share one engine run and duplicate points
// across jobs compute once.
void job_scheduler::run_sweep_batch(std::unique_lock<std::mutex>& lock) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<job_record>> batch;
  std::vector<service::point_query> combined;
  std::vector<std::size_t> offsets;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const std::shared_ptr<job_record> job = jobs_.at(it->second);
    if (job->kind != "sweep") break;
    it = queue_.erase(it);
    if (job->has_deadline && now >= job->deadline) {
      finish(*job, job_state::timed_out);
      continue;
    }
    start_running_locked(*job);
    offsets.push_back(combined.size());
    combined.insert(combined.end(), job->queries.begin(),
                    job->queries.end());
    batch.push_back(job);
  }
  if (batch.empty()) return;  // every queued sweep had already expired
  count_event(stats_, &scheduler_stats::sweep_batches,
              scheduler_metrics::get().sweep_batches);
  count_event(stats_, &scheduler_stats::sweep_jobs_batched,
              scheduler_metrics::get().sweep_jobs_batched, batch.size());

  lock.unlock();
  service::sweep_response response;
  service::eval_trace batch_trace;
  bool batch_failed = false;
  // Per-job fallback responses when the combined evaluation throws: one
  // client's bad request (e.g. an impossible code length that only fails
  // in the engine) must not poison the other coalesced jobs -- and one
  // job's cancel/deadline must not discard its batchmates' work -- so
  // each job re-evaluates alone with only its own check and carries only
  // its own diagnostic. Payload purity makes the solo rerun bit-identical
  // to its share of the batch, and the store makes the rerun cheap (the
  // aborted batch's completed points were already inserted).
  std::vector<service::sweep_response> solo(batch.size());
  std::vector<service::eval_trace> solo_trace(batch.size());
  std::vector<job_state> solo_state(batch.size(), job_state::done);
  std::vector<std::string> solo_error(batch.size());
  const auto batch_check = [&batch] {
    for (const std::shared_ptr<job_record>& job : batch) {
      job->check_running();
    }
  };
  try {
    NWDEC_FAILPOINT("api.job.sweep.evaluate");
    response = service_.evaluate(combined, batch_check, &batch_trace);
  } catch (const std::exception&) {
    batch_failed = true;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const job_record& job = *batch[b];
      solo_state[b] = run_to_outcome(
          [&] {
            NWDEC_FAILPOINT("api.job.sweep.evaluate");
            solo[b] = service_.evaluate(
                job.queries, [&job] { job.check_running(); }, &solo_trace[b]);
          },
          solo_error[b]);
    }
  }
  lock.lock();

  for (std::size_t b = 0; b < batch.size(); ++b) {
    job_record& job = *batch[b];
    // A solo rerun's spans are its own; batched jobs share the batch's
    // evaluation spans (that evaluation IS their execution).
    if (batch_failed) {
      job.trace.batch_jobs = 1;
      job.trace.batch_points = job.queries.size();
      job.trace.spans = solo_trace[b];
    } else {
      job.trace.batch_jobs = batch.size();
      job.trace.batch_points = combined.size();
      job.trace.spans = batch_trace;
    }
    if (batch_failed && solo_state[b] != job_state::done) {
      job.error = solo_error[b];
      finish(job, solo_state[b]);
      continue;
    }
    // Slice this job's points back out (or take its solo rerun) and
    // rebuild its wrapper counts from the per-point provenance.
    auto sliced = std::make_shared<service::sweep_response>();
    if (batch_failed) {
      sliced->points = std::move(solo[b].points);
    } else {
      const std::size_t begin = offsets[b];
      const std::size_t count = job.queries.size();
      sliced->points.assign(response.points.begin() + begin,
                            response.points.begin() + begin + count);
    }
    for (const service::sweep_response_entry& entry : sliced->points) {
      switch (entry.source) {
        case service::point_source::cached: ++sliced->cached; break;
        case service::point_source::topped_up: ++sliced->topped_up; break;
        case service::point_source::computed: ++sliced->computed; break;
      }
    }
    job.sweep = std::move(sliced);
    job.progress_done = job.progress_total;
    finish(job, job_state::done);
  }
}

// Caller holds `lock`; the job is already marked running.
void job_scheduler::run_refine(std::unique_lock<std::mutex>& lock,
                               const std::shared_ptr<job_record>& job) {
  lock.unlock();
  service::refine_result refined;
  std::string error;
  const auto refine_start = std::chrono::steady_clock::now();
  const job_state outcome = run_to_outcome(
      [&] {
        refined = service::refine(
            service_, job->refinement,
            [this, job](std::size_t evaluations) {
              const std::lock_guard<std::mutex> progress_lock(mutex_);
              job->progress_done = evaluations;
              publish_event_locked(*job, "progress", false,
                                   json_fragment([&](json_writer& json) {
                                     json.field("done", evaluations);
                                     json.field("total", job->progress_total);
                                   }));
            },
            [&job] { job->check_running(); });
      },
      error);
  lock.lock();
  // Refine probes all funnel through the shared store; the whole wall is
  // the engine span (refine has no finer instrumented spans).
  job->trace.batch_jobs = 1;
  job->trace.spans.engine_seconds =
      seconds_between(refine_start, std::chrono::steady_clock::now());
  if (outcome == job_state::done) {
    job->refined =
        std::make_shared<const service::refine_result>(std::move(refined));
  }
  job->error = error;
  finish(*job, outcome);
}

}  // namespace nwdec::api
