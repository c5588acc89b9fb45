// Monte-Carlo oracles and conveniences for the tests and bench harnesses
// (the nwdec_testkit library). The production API is one engine entry,
// yield::monte_carlo_yield_resume, at one block size; everything here
// exists to check it or to call it tersely:
//   * monte_carlo_yield: fresh-state conveniences over the engine (on a
//     prebuilt context, or building the context and drawing the run key
//     from an rng);
//   * monte_carlo_yield_blocked: a single-threaded resumable run at an
//     explicit block size -- block 1 runs every trial through the scalar
//     trial_context::run_trial, the batched kernel's equivalence oracle;
//     any other size drives run_trial_block with blocks of that size;
//   * monte_carlo_yield_reference: the original allocating loop that walks
//     the MSPT flow op by op. It samples the same realized-V_T
//     distribution with different draws, so agreement with the engine is
//     statistical, not bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "fab/defects.h"
#include "util/rng.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::testkit {

/// The engine from a fresh state: options.trials trials keyed by run_key.
yield::mc_yield_result monte_carlo_yield(const yield::trial_context& context,
                                         const yield::mc_options& options,
                                         std::uint64_t run_key);

/// Builds the context and draws the run key from `random`.
yield::mc_yield_result monte_carlo_yield(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan,
    const yield::mc_options& options, rng& random);

/// One thread, blocks of `block` trials (1 = the scalar run_trial path);
/// same contract as monte_carlo_yield_resume, so the bits must match it.
/// options.threads is ignored.
yield::mc_yield_result monte_carlo_yield_blocked(
    const yield::trial_context& context, const yield::mc_options& options,
    std::uint64_t run_key, std::size_t block, yield::mc_run_state& state);

/// Same, from a fresh state.
yield::mc_yield_result monte_carlo_yield_blocked(
    const yield::trial_context& context, const yield::mc_options& options,
    std::uint64_t run_key, std::size_t block);

/// The allocating op-by-op reference loop (statistical agreement only).
yield::mc_yield_result monte_carlo_yield_reference(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan, yield::mc_mode mode,
    std::size_t trials, rng& random,
    const std::optional<fab::defect_params>& defects = std::nullopt);

}  // namespace nwdec::testkit
