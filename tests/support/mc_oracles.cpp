#include "mc_oracles.h"

#include <algorithm>
#include <vector>

#include "decoder/addressing.h"
#include "decoder/pattern_matrix.h"
#include "fab/process_sim.h"
#include "util/error.h"

namespace nwdec::testkit {

namespace {

// Folds per-trial good counts into the accumulator in trial order -- the
// same reduction the engine applies.
void fold(yield::mc_run_state& state, const std::vector<std::uint32_t>& good,
          std::size_t nanowires) {
  for (const std::uint32_t g : good) {
    state.per_trial_yield.add(static_cast<double>(g) /
                              static_cast<double>(nanowires));
  }
}

}  // namespace

yield::mc_yield_result monte_carlo_yield(const yield::trial_context& context,
                                         const yield::mc_options& options,
                                         std::uint64_t run_key) {
  yield::mc_run_state state;
  return yield::monte_carlo_yield_resume(context, options, run_key, state);
}

yield::mc_yield_result monte_carlo_yield(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan,
    const yield::mc_options& options, rng& random) {
  const yield::trial_context context(design, plan);
  const std::uint64_t run_key = random.engine()();
  return monte_carlo_yield(context, options, run_key);
}

yield::mc_yield_result monte_carlo_yield_blocked(
    const yield::trial_context& context, const yield::mc_options& options,
    std::uint64_t run_key, std::size_t block, yield::mc_run_state& state) {
  NWDEC_EXPECTS(options.trials >= 1, "need at least one Monte-Carlo trial");
  NWDEC_EXPECTS(block >= 1, "a trial block holds at least one trial");
  const double sigma_vt =
      options.sigma_vt.value_or(context.design().tech().sigma_vt);
  const fab::defect_params* defects =
      options.defects.has_value() ? &*options.defects : nullptr;
  const std::size_t base = state.trials();
  std::vector<std::uint32_t> good(options.trials, 0);
  yield::trial_scratch scratch;
  for (std::size_t slot = 0; slot < options.trials; slot += block) {
    if (block == 1) {
      rng stream = rng::from_counter(run_key, base + slot);
      good[slot] = static_cast<std::uint32_t>(context.run_trial(
          stream, scratch, options.mode, sigma_vt, defects));
    } else {
      context.run_trial_block(run_key, base + slot,
                              std::min(block, options.trials - slot), scratch,
                              options.mode, sigma_vt, defects,
                              good.data() + slot);
    }
  }
  fold(state, good, context.nanowire_count());
  return yield::mc_result_from_state(state);
}

yield::mc_yield_result monte_carlo_yield_blocked(
    const yield::trial_context& context, const yield::mc_options& options,
    std::uint64_t run_key, std::size_t block) {
  yield::mc_run_state state;
  return monte_carlo_yield_blocked(context, options, run_key, block, state);
}

// ---------------------------------------------------------------------------
// Allocating scalar reference: the seed implementation, kept verbatim except
// that each trial consumes the same counter-based stream as the engine.

namespace {

std::vector<double> vt_row(const matrix<double>& realized_vt,
                           std::size_t row) {
  return realized_vt.row(row);
}

bool reference_window_ok(const decoder::decoder_design& design,
                         const matrix<double>& realized_vt, std::size_t row) {
  const double window = design.levels().window_half_width();
  for (std::size_t j = 0; j < design.region_count(); ++j) {
    const codes::digit value = design.pattern()(row, j);
    const double nominal = design.levels().level(value);
    const double delta = realized_vt(row, j) - nominal;
    // Digit-0 regions have no blocking duty: only the upper bound applies.
    if (delta >= window) return false;
    if (value != 0 && delta <= -window) return false;
  }
  return true;
}

bool reference_operational_ok(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan,
    const matrix<double>& realized_vt, std::size_t row,
    const std::vector<std::vector<std::size_t>>& members) {
  // Drive this nanowire's own address and require that it conducts while
  // every other nanowire reachable through the same contact group blocks.
  const codes::code_word address =
      decoder::pattern_row(design.pattern(), design.code().radix, row);
  const std::vector<double> drive =
      decoder::drive_pattern(address, design.levels());
  if (!decoder::conducts(vt_row(realized_vt, row), drive)) return false;
  for (const std::size_t other : members[plan.group_of(row)]) {
    if (other == row) continue;
    if (decoder::conducts(vt_row(realized_vt, other), drive)) return false;
  }
  return true;
}

}  // namespace

yield::mc_yield_result monte_carlo_yield_reference(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan, yield::mc_mode mode,
    std::size_t trials, rng& random,
    const std::optional<fab::defect_params>& defects) {
  NWDEC_EXPECTS(trials >= 1, "need at least one Monte-Carlo trial");
  NWDEC_EXPECTS(plan.nanowire_count == design.nanowire_count(),
                "plan and design must describe the same half cave");

  const std::size_t n = design.nanowire_count();
  const fab::process_simulator simulator(design);
  const std::uint64_t run_key = random.engine()();

  std::vector<std::vector<std::size_t>> members(plan.group_count);
  std::vector<double> discard_probability(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[plan.group_of(i)].push_back(i);
    discard_probability[i] = plan.discard_probability(i);
  }

  std::vector<std::uint32_t> good_counts(trials, 0);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    rng stream = rng::from_counter(run_key, trial);
    const fab::fab_result fabbed = simulator.run(stream);

    std::optional<fab::defect_map> defect_map;
    if (defects.has_value()) {
      defect_map = fab::sample_defects(n, *defects, stream);
    }

    std::size_t good = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (discard_probability[i] > 0.0 &&
          stream.bernoulli(discard_probability[i])) {
        continue;
      }
      if (defect_map.has_value() && defect_map->disables(i)) continue;
      const bool ok = mode == yield::mc_mode::window
                          ? reference_window_ok(design, fabbed.realized_vt, i)
                          : reference_operational_ok(
                                design, plan, fabbed.realized_vt, i, members);
      if (ok) ++good;
    }
    good_counts[trial] = static_cast<std::uint32_t>(good);
  }
  yield::mc_run_state state;
  fold(state, good_counts, n);
  return yield::mc_result_from_state(state);
}

}  // namespace nwdec::testkit
