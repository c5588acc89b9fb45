// sweep_engine: the library's one design-evaluation entry.
//
// The paper's headline study (Sec. 6) ranks decoder designs across code
// families and word lengths; addressability-limit scans over the half-cave
// size N (Chee & Ling) and process-variability ablations extend it. All of
// those are one shape of computation: a grid over (code_type, radix,
// full_length, nanowires, sigma_vt, defects, trials), each point needing
// the same expensive intermediates. The figure harnesses, ablations,
// examples, the nwdec_sweep CLI and the sweep service all evaluate design
// points through run() -- one engine per platform, so a harness that
// evaluates points one at a time still shares one design cache;
// core/experiments.h holds the figure grids and the readers of a report's
// entries (find_evaluation, best_bit_area). The engine evaluates each grid
// once, in parallel, without deriving anything twice:
//
//   * Design points are sharded across workers by util/parallel's
//     parallel_for (one atomic cursor); the thread budget (options.threads,
//     0 = thread_budget()) is split as budget / workers runners for each
//     point's Monte-Carlo leg. That leg is one call path: chunks of at
//     most mc_chunk_trials through yield::monte_carlo_yield_resume, which
//     runs fixed blocks of yield::mc_default_block_size trials. How far a
//     leg runs is the point's mc_plan -- plain data: a fixed trial
//     count, or a Wilson half-width target walked along absolute rungs
//     (next_batch), optionally resumed from persisted (trials, mean, M2).
//     One run() serves a grid whose points carry different budgets; a
//     native cancel check (cancel_check_fn) runs before each design build
//     and each chunk. The leg always uses the run key
//     rng::from_counter(seed, fingerprint) where the fingerprint is a pure
//     function of the resolved request, and the per-trial streams are
//     counter-based -- so results are bit-identical for any thread count,
//     invariant under grid-point reordering, and never shifted by which
//     other points exist or whether they carry Monte-Carlo at all.
//     (Corollary: two identical requests produce identical entries.)
//   * Expensive intermediates are memoized in keyed caches that persist
//     across run() calls (the substrate for a long-running sweep service).
//
// Cache-key contract -- what may be reused when:
//   * built code + decoder_design + trial_context: keyed by
//     (code_type, radix, full_length, nanowires). Everything inside is
//     sigma-independent: the pattern, doping and dose-count matrices, the
//     V_T levels, and the context's drive/nominal/sqrt(nu) tables only
//     depend on the code and the technology *structure*, so one entry
//     serves every (sigma, defects, trials) point. The trial_context is
//     built lazily on the first Monte-Carlo request for the design
//     (analytic-only sweeps skip it); the per-layer geometry and area
//     breakdown ride along (they depend on (full_length, group_count,
//     nanowires) only).
//   * contact_group_plan: keyed by (nanowires, code_space). Code families
//     with equal Omega at equal N (e.g. TC/GC/BGC at one length) share one
//     plan -- the planner never looks at the arrangement.
//   * NOT cached across engines: anything downstream of the technology or
//     the crossbar spec's raw capacity; both are fixed per engine, so a
//     different platform needs a different engine.
// Per-point sigma is applied through the sigma overrides of
// yield::analytic_yield and yield::mc_options, which never touch the cached
// tables. The caches are guarded by a mutex during the prepare phase of
// run(); the evaluation phase reads only immutable entries, so concurrent
// run() calls on one engine are safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/design_point.h"
#include "crossbar/geometry.h"
#include "device/tech_params.h"
#include "fab/defects.h"
#include "yield/monte_carlo_yield.h"
#include "yield/trial_context.h"

namespace nwdec::core {

/// One fully-specified grid point of a design-space sweep.
struct sweep_request {
  design_point design;
  /// Nanowires per half cave; 0 = the engine spec's default.
  std::size_t nanowires = 0;
  /// Process sigma in volts; negative = the engine technology's default
  /// (0 is a real value: a variability-free process).
  double sigma_vt = -1.0;
  /// Monte-Carlo trials at this point; 0 = analytic evaluation only.
  std::size_t mc_trials = 0;
  /// Structural defect injection for the Monte-Carlo leg, if any.
  std::optional<fab::defect_params> defects;
};

/// Axes of a rectangular grid; expand() yields the cartesian product with
/// designs as the slowest axis, then nanowires, then sigmas, then defects.
/// Empty optional axes mean "platform default". Every member has a default
/// initializer, so a designated initializer names only the axes it sets.
struct sweep_axes {
  std::vector<design_point> designs{};
  std::vector<std::size_t> nanowires{};  ///< empty = {spec default}
  std::vector<double> sigmas_vt{};       ///< empty = {tech default}
  std::vector<std::optional<fab::defect_params>> defects{};  ///< empty = {none}
  std::size_t mc_trials = 0;             ///< applied to every point

  std::vector<sweep_request> expand() const;
};

/// Fingerprint of a fully-resolved request (nanowires and sigma defaults
/// filled in) -- the key of every result-level memoization layer.
///
/// Contract:
///   * Pure function of the point's parameters alone: (code type, radix,
///     length, nanowires, mc_trials, sigma_vt bits, defect presence and
///     rates). Never of grid position, engine state, or the other points.
///   * A point's Monte-Carlo run key is rng::from_counter(seed,
///     fingerprint(point)), so equal fingerprints mean equal results under
///     one (seed, mode) -- the memoizable semantics service::result_store
///     persists across processes. The mixing chain is a splitmix64 cascade
///     (util/rng.h): distinct points collide with probability ~2^-64 per
///     pair; run() asserts that the fingerprints of distinct resolved
///     points in one grid are in fact distinct, so a collision fails loudly
///     instead of silently aliasing two results.
///   * The value is part of the persisted cache-file format: changing the
///     mixing scheme invalidates existing caches (service::result_store
///     rejects them via its header check, it never misreads them).
std::uint64_t fingerprint(const sweep_request& request);

/// A cooperative cancellation/deadline check: run() calls it before each
/// design build of its prepare phase and before each Monte-Carlo chunk of
/// every point, and it aborts the run by THROWING (cancelled_error /
/// timeout_error by convention); the exception propagates out of run() at
/// any thread budget. It is called concurrently from workers, and in the
/// prepare phase under the engine's cache lock, so it must neither block
/// nor call back into the engine. An empty function disables checking.
using cancel_check_fn = std::function<void()>;

/// Most trials one Monte-Carlo call runs: every leg runs in chunks of at
/// most this many trials with the cancel check before each, so a check
/// fires at least once per this many trials of a point. Chunking never
/// changes the bits (yield::mc_run_state contract).
inline constexpr std::size_t mc_chunk_trials = 65536;

/// CI-width stopping policy of a point's Monte-Carlo leg (the ROADMAP's
/// "confidence-driven adaptive trial budgets"; service/adaptive_budget.h
/// describes how the sweep service applies it).
struct adaptive_options {
  /// Stop once the Wilson half-width of the yield estimate is <= this.
  double target_half_width = 0.02;
  /// Trials of the first batch (also the minimum spend per point).
  std::size_t initial_batch = 64;
  /// Total-trials growth per round: convergence checks happen at the
  /// absolute rungs ceil(initial_batch * growth^k). The rungs are a pure
  /// function of this policy -- never of where a run started -- so a run
  /// resumed from persisted progress visits exactly the rungs a cold run
  /// visits. Must be > 1.
  double growth = 2.0;

  /// Throws invalid_argument_error on out-of-range parameters.
  void validate() const;

  /// 64-bit fingerprint of the policy, mixed into the result-store header:
  /// results computed under different budgets never alias.
  std::uint64_t fingerprint() const;
};

/// The batch the policy issues after `trials_done` trials whose running
/// estimate has Wilson half-width `half_width` (z = 1.96, each trial's
/// yield fraction one observation); 0 = stop. run() sizes every rung with
/// it and additionally caps the batch at the point's remaining mc_trials.
std::size_t next_batch(const adaptive_options& policy,
                       std::size_t trials_done, double half_width);

/// A point's Monte-Carlo plan: its budget rule and starting state, as plain
/// data (one per grid point).
struct mc_plan {
  /// Unset = fixed: the leg runs to exactly request.mc_trials. Set = the
  /// leg stops at the first rung of this policy whose Wilson half-width is
  /// <= its target_half_width, request.mc_trials capping the total.
  std::optional<adaptive_options> adaptive;
  /// Persisted progress to continue from (unset = trial zero). By the
  /// yield::mc_run_state contract the state at any trial total is
  /// bit-identical whether those trials ran here or in an earlier process,
  /// so resuming only moves where the spend starts. request.mc_trials caps
  /// the total, resumed trials included; a point already at or beyond
  /// every budget decision re-emits its summary without running a trial.
  std::optional<yield::mc_run_state> resume;
};

/// Engine run configuration.
struct sweep_engine_options {
  /// Thread budget; 0 = thread_budget(). Design points are sharded across
  /// workers; when the grid is smaller than the budget, the spare threads
  /// shard each point's Monte-Carlo trial blocks instead. Results are
  /// bit-identical regardless of the value.
  std::size_t threads = 0;
  std::uint64_t seed = 1;
  yield::mc_mode mode = yield::mc_mode::operational;
};

/// One evaluated grid point.
struct sweep_engine_entry {
  sweep_request request;          ///< defaults resolved (nanowires, sigma)
  design_evaluation evaluation;   ///< analytic block always, MC when asked
  /// Trials actually consumed: request.mc_trials for fixed budgets, the
  /// rung where an adaptive budget stopped otherwise. Resumed trials count
  /// (this is the total the payload describes, not this run's spend).
  std::size_t mc_trials_used = 0;
  /// Welford M2 accumulator at mc_trials_used -- with (mean, trials) the
  /// full resumable state of the estimator, persisted by the result store
  /// so a later request can top the point up instead of recomputing.
  double mc_m2 = 0.0;
  double mc_seconds = 0.0;
  double mc_trials_per_second = 0.0;
};

/// How much work the keyed caches saved during run() calls.
struct sweep_cache_stats {
  std::size_t designs_built = 0;  ///< (code, design, context) constructions
  std::size_t design_reuses = 0;  ///< points served by an existing entry
  std::size_t plans_built = 0;
  std::size_t plan_reuses = 0;
};

/// A completed sweep: entries in grid order plus everything needed to
/// reproduce the run.
struct sweep_engine_report {
  yield::mc_mode mode = yield::mc_mode::operational;
  std::size_t threads = 1;       ///< resolved worker count
  std::uint64_t seed = 0;
  std::size_t raw_bits = 0;
  std::size_t default_nanowires = 0;
  double default_sigma_vt = 0.0;
  sweep_cache_stats cache;       ///< cumulative over the engine's lifetime
  std::vector<sweep_engine_entry> entries;
};

/// Evaluates design-space grids on a fixed platform with context caching.
class sweep_engine {
 public:
  sweep_engine(crossbar::crossbar_spec spec, device::technology tech);
  ~sweep_engine();
  sweep_engine(const sweep_engine&) = delete;
  sweep_engine& operator=(const sweep_engine&) = delete;

  const crossbar::crossbar_spec& spec() const { return spec_; }
  const device::technology& tech() const { return tech_; }

  /// Evaluates every point of the grid; entries come back in grid order.
  /// Analytic results are deterministic; Monte-Carlo results depend only on
  /// (options.seed, the resolved point parameters, the point's mc_plan) --
  /// see the header comment for the full determinism contract. `mc_plans`
  /// holds one plan per point, or is empty for fixed cold budgets
  /// everywhere; `check`, when set, is called before each design build and
  /// each Monte-Carlo chunk (see cancel_check_fn).
  sweep_engine_report run(const std::vector<sweep_request>& points,
                          const sweep_engine_options& options = {},
                          const std::vector<mc_plan>& mc_plans = {},
                          const cancel_check_fn& check = {}) const;
  sweep_engine_report run(const sweep_axes& axes,
                          const sweep_engine_options& options = {}) const;

  /// Cumulative cache counters over the engine's lifetime (also embedded in
  /// every report); the sweep service's stats endpoint reads this.
  sweep_cache_stats cache_stats() const;

  /// Fills the platform defaults into a request (nanowires == 0 -> the
  /// spec's half-cave size, sigma < 0 -> the technology's sigma_vt) -- the
  /// exact resolution run() applies before evaluating, exposed so
  /// result-level memoization layers fingerprint the same request the
  /// engine computes.
  sweep_request resolve(sweep_request request) const;

 private:
  struct prepared_design;
  using design_key = std::tuple<int, unsigned, std::size_t, std::size_t>;
  using plan_key = std::pair<std::size_t, std::size_t>;

  /// Returns the cached entry for the key, building (and caching) it and
  /// its contact plan on a miss; `check` runs before any build. Caller must
  /// hold mutex_.
  const prepared_design& prepare_locked(const sweep_request& request,
                                        const cancel_check_fn& check) const;

  crossbar::crossbar_spec spec_;
  device::technology tech_;

  mutable std::mutex mutex_;
  // Contexts reference the plans, so plans_ must outlive designs_
  // (members are destroyed in reverse declaration order).
  mutable std::map<plan_key, std::unique_ptr<crossbar::contact_group_plan>>
      plans_;
  mutable std::map<design_key, std::unique_ptr<prepared_design>> designs_;
  mutable sweep_cache_stats stats_;
};

/// Serializes a report as a JSON document (stable key order: run metadata,
/// cache stats, then one object per grid point) -- the format of the
/// nwdec_sweep CLI and the CI bench-trajectory artifact.
std::string to_json(const sweep_engine_report& report);

/// Serializes a report as CSV, one row per grid point, with the
/// Monte-Carlo columns empty for analytic-only points.
std::string to_csv(const sweep_engine_report& report);

}  // namespace nwdec::core
