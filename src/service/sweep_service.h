// service::sweep_service: the memoizing front end over core::sweep_engine
// -- the serving substrate of the ROADMAP's long-running sweep daemon.
//
// evaluate() answers each requested point from the result store when it can
// and hands every miss to ONE engine run, each point carrying its own
// Monte-Carlo budget as data (core::mc_plan: fixed or a half-width target,
// plus the persisted progress a top-up resumes from), so fresh points shard
// across workers and share the engine's intermediate caches whatever their
// targets. Because a point's result is a pure function of (seed, mode,
// budget policy, target, fingerprint(point))
// -- the engine's determinism contract plus the absolute-rung budget
// schedule -- the ways a point can be answered (computed cold, memory
// cache, recovered durable store, topped up from persisted progress) carry
// identical payloads, and service::to_json serializes them byte-identically.
//
// Budget semantics per point_query:
//   * min_half_width == 0 (fixed): the Monte-Carlo leg runs to exactly
//     request.mc_trials. A cached entry with fewer trials (stopped early by
//     an adaptive target) is RESUMED to the cap -- bit-identical to a cold
//     fixed run by the yield::mc_run_state contract.
//   * min_half_width  > 0: the leg stops at the first absolute rung
//     (service::adaptive_options schedule; the service's --adaptive policy
//     parameters, or the defaults when none is configured) whose Wilson
//     half-width meets the target, capped at request.mc_trials. A cached
//     entry canonical for an equal-or-looser target (stored_result::
//     budget_target) is served when it already meets the target, and
//     topped up along the remaining rungs when it does not -- again
//     bit-identical to the cold walk. An entry with weaker provenance
//     (fixed-cap, or a looser recorded target) is recomputed, keeping the
//     payload a pure function of (config, query) regardless of what the
//     cache happens to hold.
//
// Every computed Monte-Carlo figure comes from one call path: the engine's
// chunks of yield::monte_carlo_yield_resume, which runs fixed blocks of
// yield::mc_default_block_size trials. service_options::threads is the
// engine's thread budget (0 = util/parallel's thread_budget()); neither
// it nor the block size is part of a result, so neither is in the cache
// header.
//
// The service is internally synchronized: the store (and its counters) are
// guarded by a mutex held only around the lookup/insert passes, while
// engine runs proceed unlocked (core::sweep_engine supports concurrent
// run() calls). Concurrent evaluations of one point may both compute it --
// same bits, wasted work at worst -- so any interleaving of calls returns
// the same payloads; only the provenance counters depend on the schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep_engine.h"
#include "service/adaptive_budget.h"
#include "service/durable_store.h"
#include "service/result_store.h"

namespace nwdec::service {

/// Service-wide run configuration; fixed for the service's lifetime (it is
/// part of every cached result's validity -- see store_header).
struct service_options {
  std::size_t threads = 0;  ///< engine thread budget; 0 = thread_budget()
  std::uint64_t seed = 2009;
  yield::mc_mode mode = yield::mc_mode::operational;
  std::size_t cache_capacity = 1 << 16;
  /// CI-width stopping policy applied to every sweep point; unset = fixed
  /// budgets (request.mc_trials). Its (initial_batch, growth) also
  /// parameterize the rung schedule of per-query min_half_width targets.
  std::optional<adaptive_options> adaptive;
};

/// One point of a sweep request plus its per-query budget target (see the
/// header comment for the full semantics).
struct point_query {
  core::sweep_request request;
  /// 0 = fixed budget; > 0 = stop at the first rung whose Wilson
  /// half-width is <= this (request.mc_trials stays the cap).
  double min_half_width = 0.0;
};

/// Where an answered point came from.
enum class point_source {
  computed,   ///< evaluated cold by the engine
  cached,     ///< served by the store as-is
  topped_up,  ///< resumed from the store's persisted (mean, trials, M2)
};

/// A cooperative cancellation/deadline check: called at evaluation start,
/// then by the engine before each design build and each Monte-Carlo chunk
/// (core::cancel_check_fn); aborts the evaluation by THROWING
/// (cancelled_error / timeout_error by convention -- any exception
/// propagates out of evaluate()). An empty function disables checking.
using core::cancel_check_fn;

/// Span timings of one evaluate() call, for request tracing (api::job
/// carries these into `status` responses and the slow-request log).
/// Strictly out-of-band: the trace observes the evaluation, never steers
/// it, so payloads stay pure functions of (config, request).
struct eval_trace {
  double store_lookup_seconds = 0.0;  ///< pass 1: resolve + store probes
  double engine_seconds = 0.0;        ///< pass 2: engine run wall
  double store_insert_seconds = 0.0;  ///< pass 3 total (includes the WAL)
  double wal_append_seconds = 0.0;    ///< WAL record appends + the fsync
  double wal_rotation_seconds = 0.0;  ///< snapshot compaction, when it ran
  std::size_t engine_points = 0;      ///< points the engine actually ran
  std::size_t mc_trials = 0;          ///< Monte-Carlo trials spent
};

/// One answered point: the payload plus its provenance. The result is the
/// store's own immutable object (or, for a fresh result the store declined
/// to keep, the one object the evaluation produced), shared rather than
/// copied, so answers retained by finished jobs cost a pointer per point.
struct sweep_response_entry {
  std::shared_ptr<const stored_result> result;
  point_source source = point_source::computed;
};

/// A fully answered sweep request, in request order.
struct sweep_response {
  std::size_t cached = 0;     ///< points served by the store as-is
  std::size_t computed = 0;   ///< points evaluated cold by the engine
  std::size_t topped_up = 0;  ///< points resumed from persisted progress
  std::vector<sweep_response_entry> points;
};

/// What a flush accomplished (the protocol's flush response body).
struct flush_summary {
  bool persisted = false;    ///< a path was given and written
  std::size_t entries = 0;   ///< store size at flush time (pre-clear)
  bool cleared = false;      ///< the in-memory entries were dropped
};

/// Locked snapshot of every counter the stats endpoint reports.
struct service_stats {
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::size_t cheap_entries = 0;  ///< analytic-only cost class
  std::size_t mc_entries = 0;     ///< Monte-Carlo cost class
  store_stats store;              ///< hit/miss/insert/evict counters
  std::size_t topped_up = 0;      ///< lifetime topped-up points
  core::sweep_cache_stats engine;
};

class sweep_service {
 public:
  sweep_service(crossbar::crossbar_spec spec, device::technology tech,
                service_options options = {});

  const service_options& options() const { return options_; }
  const core::sweep_engine& engine() const { return engine_; }
  /// Direct store access for single-owner callers (tools, tests). The
  /// service's own entry points are internally synchronized; going through
  /// this accessor while other threads evaluate is a data race.
  result_store& store() { return store_; }
  const result_store& store() const { return store_; }

  /// The header every persisted cache must match to be loaded here.
  store_header header() const;

  /// Fills platform defaults into a request (the form fingerprints are
  /// computed over).
  core::sweep_request resolve(core::sweep_request request) const;

  /// Answers every query, serving store hits, topping up resumable
  /// entries, and computing the rest in one engine run (each point under
  /// its own budget). Duplicate queries within one call are computed once.
  /// `check`, when set, is invoked between units of work and aborts the
  /// evaluation by throwing (see cancel_check_fn). `trace`, when set,
  /// receives the evaluation's span timings.
  sweep_response evaluate(const std::vector<point_query>& queries,
                          const cancel_check_fn& check = {},
                          eval_trace* trace = nullptr);
  /// Fixed-budget conveniences (min_half_width applied to every point).
  sweep_response evaluate(const std::vector<core::sweep_request>& points,
                          double min_half_width = 0.0,
                          const cancel_check_fn& check = {});
  sweep_response evaluate(const core::sweep_axes& axes,
                          double min_half_width = 0.0);

  /// Store-aware admission probe: when EVERY query is servable from the
  /// store at sufficient provenance (by exactly evaluate()'s pass-1 serve
  /// rules), answers the whole sweep inline -- hit counters and LRU
  /// recency move identically to the normal path -- and returns the
  /// response. Otherwise returns nullopt with NO side effects: the check
  /// runs on peek(), so a declined probe perturbs neither counters nor
  /// eviction order, and the follow-up evaluate() records the misses
  /// itself. The scheduler uses this to answer fully-cached sweeps
  /// without occupying a worker or allocating a job id.
  std::optional<sweep_response> try_serve_cached(
      const std::vector<point_query>& queries);

  /// Makes the service crash-safe, rooted at the snapshot `path`:
  /// recovers snapshot + log (quarantining corrupt state, never throwing
  /// on it -- see durable_store), then keeps the store durable
  /// incrementally: every fresh result is appended to the write-ahead
  /// log (one fsync per evaluation pass) and the snapshot is rotated when
  /// the log outgrows it. A plain v2 store document at `path` is a valid
  /// snapshot, so an exported JSON file imports (and upgrades) in place.
  /// Throws io_error on real I/O failures (unwritable directory); the
  /// caller may then continue in memory.
  recovery_report enable_durability(const std::string& path,
                                    durable_options options = {});
  /// The durable snapshot path; empty while the service is memory-only.
  std::string snapshot_path() const;

  /// The flush endpoint's behavior, in the only safe order: persist the
  /// store to `path` (when non-empty) FIRST, then optionally drop the
  /// in-memory entries -- so a clear can never lose results that were
  /// promised to disk. The snapshot path compacts the durable store;
  /// any other path is an export of the v2 JSON document. Atomic with
  /// respect to concurrent evaluations.
  flush_summary flush(const std::string& path, bool clear);

  /// Consistent snapshot of the store/engine/top-up counters.
  service_stats stats() const;

 private:
  /// The budget target a query actually runs under: the query's own,
  /// else the service's adaptive policy target, and always 0 for
  /// analytic-only points (no Monte-Carlo leg to budget).
  double effective_target(const core::sweep_request& resolved,
                          double requested) const;

  core::sweep_engine engine_;
  service_options options_;
  core::sweep_engine_options engine_options_;
  adaptive_options rung_policy_;  ///< rung schedule for targets > 0

  mutable std::mutex mutex_;  ///< guards store_, durable_, topped_up_total_
  result_store store_;
  std::unique_ptr<durable_store> durable_;  ///< null = memory only
  std::size_t topped_up_total_ = 0;
};

/// Writes a response's deterministic payload into an open writer:
/// {"points": [...]} only -- cache provenance (hit/miss/top-up counts)
/// deliberately lives OUTSIDE, in the protocol wrapper, so cold, warm,
/// persisted, and topped-up answers to one request are byte-identical.
void write_payload(json_writer& json, const sweep_response& response);

/// Standalone payload document via write_payload.
std::string to_json(const sweep_response& response,
                    json_writer::style style = json_writer::style::pretty);

}  // namespace nwdec::service
