// Monte-Carlo yield: fabricate virtual half caves (fab::process_simulator)
// and count how many nanowires actually decode.
//
// Two addressability criteria are available (yield/trial_context.h):
//   * window: a nanowire works when every region's realized V_T lies in the
//     addressability window. This is the criterion the analytic model
//     integrates, so window-mode Monte Carlo must agree with
//     analytic_yield() within statistical error (the tests enforce it).
//   * operational: a nanowire works when driving its own address makes it
//     -- and nothing else in its contact group -- conduct, evaluated on
//     realized voltages. This is the real decode experiment; the window
//     criterion is sufficient but not necessary, so operational yield is
//     >= window yield (typically by a few percent).
// Optionally a structural defect map (fab/defects.h) is sampled per trial.
//
// Engine architecture: one entry, monte_carlo_yield_resume. Trials are
// grouped into blocks of mc_default_block_size, and the blocks are handed
// out to up to mc_options::threads runners by util/parallel's
// parallel_for (0 = thread_budget()). Runner state is a trial_context
// (immutable, precomputed per-design tables, shared) plus one trial_scratch
// per runner (reusable buffers and structure-of-arrays slabs), so the hot
// loop performs no heap allocation. Each block runs through the batched
// kernel (trial_context::run_trial_block): one counter-based deviate pass
// fills a lane-major realized-V_T slab for the whole block, and
// conductance / window verdicts are swept across all trial lanes of a
// nanowire at once by the branch-free kernels in decoder/addressing. Trial
// i always consumes the counter-based stream rng::from_counter(run_key, i)
// and its good count lands in slot i of a preallocated array; the final
// statistics are reduced sequentially in trial order. Results are
// therefore bit-identical for any thread count and any batch schedule
// (mc_run_state). The scalar per-trial trial_context::run_trial is the
// batched kernel's equivalence oracle, and the op-by-op reference loop
// that samples the same distribution lives with the other oracles in the
// test kit (tests/support), not in this API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "fab/defects.h"
#include "util/stats.h"
#include "yield/trial_context.h"

namespace nwdec::yield {

/// Monte-Carlo estimate of the half-cave yield.
struct mc_yield_result {
  double nanowire_yield = 0.0;   ///< mean over trials
  double crosspoint_yield = 0.0; ///< nanowire_yield^2
  interval ci{0.0, 0.0};         ///< ~95% CI on nanowire_yield
  std::size_t trials = 0;
};

/// Trial-block size of the batched kernel, the one block size production
/// runs: big enough that the structure-of-arrays conductance sweeps
/// amortize, small enough that a block's slabs stay cache-resident for
/// typical designs (16-128 measure within noise of each other on the
/// Figs. 7/8 design, with 32 the repeatable best).
inline constexpr std::size_t mc_default_block_size = 32;

/// Options for the Monte-Carlo engine.
struct mc_options {
  mc_mode mode = mc_mode::window;
  std::size_t trials = 0;
  /// Runners; 0 means thread_budget() (util/parallel.h). Results are
  /// bit-identical regardless of the value.
  std::size_t threads = 1;
  /// Structural defect injection, sampled per trial when set.
  std::optional<fab::defect_params> defects;
  /// Process sigma override in volts; the design technology's sigma_vt
  /// when unset (core::sweep_engine scans sigma on one context with it).
  std::optional<double> sigma_vt;
};

/// Saved progress of a resumable Monte-Carlo run: the per-trial yield
/// accumulator (count = trials consumed so far, running mean, Welford M2).
/// Because trial i always consumes the stream rng::from_counter(run_key, i)
/// and the accumulator folds trials in order, continuing from a state is
/// deterministic: any batch schedule summing to T trials is bit-identical
/// to a single T-trial run -- the contract the sweep service's adaptive
/// trial budgets (CI-width stopping) are built on.
struct mc_run_state {
  running_stats per_trial_yield;  ///< one observation per trial: good / N

  /// Trials consumed so far (the next trial index).
  std::size_t trials() const { return per_trial_yield.count(); }
  /// The running mean nanowire yield (0 before any trial).
  double mean() const { return per_trial_yield.mean(); }

  /// Rebuilds a state from persisted moments (e.g. a cached result), so a
  /// run can continue across process restarts.
  static mc_run_state from_moments(std::size_t trials, double mean, double m2) {
    return {running_stats::from_moments(trials, mean, m2)};
  }
};

/// The engine: runs `options.trials` *further* trials starting at trial
/// index state.trials(), folds them into `state` in trial order, and
/// returns the merged estimate over all state.trials() trials so far.
/// `run_key` seeds the per-trial counter-based streams. Sharding across
/// `options.threads` never changes the bits; see mc_run_state for the
/// batching contract (a fresh state is a cold run).
mc_yield_result monte_carlo_yield_resume(const trial_context& context,
                                         const mc_options& options,
                                         std::uint64_t run_key,
                                         mc_run_state& state);

/// Assembles the summary statistics (mean, crosspoint yield, normal-theory
/// CI) over every trial folded into `state` so far -- exactly what the
/// resumable entry returns after its last batch, exposed so a state
/// rebuilt from persisted moments (mc_run_state::from_moments) can re-emit
/// the identical mc_yield_result without running a trial. This is the
/// cross-restart top-up path of the sweep service.
mc_yield_result mc_result_from_state(const mc_run_state& state);

}  // namespace nwdec::yield
