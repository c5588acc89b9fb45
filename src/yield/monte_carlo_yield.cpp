#include "yield/monte_carlo_yield.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "decoder/addressing.h"
#include "decoder/pattern_matrix.h"
#include "fab/process_sim.h"
#include "util/error.h"

namespace nwdec::yield {

namespace {

// Folds a batch of per-trial good counts into the resumable accumulator,
// sequentially in trial order so the result is independent of which thread
// produced which slot (and of how the run was batched).
void accumulate_trials(mc_run_state& state,
                       const std::vector<std::uint32_t>& good,
                       std::size_t nanowires) {
  for (const std::uint32_t g : good) {
    state.per_trial_yield.add(static_cast<double>(g) /
                              static_cast<double>(nanowires));
  }
}

std::size_t resolve_thread_count(std::size_t requested, std::size_t trials) {
  std::size_t threads = requested;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(threads, trials);
}

}  // namespace

mc_yield_result mc_result_from_state(const mc_run_state& state) {
  mc_yield_result result;
  result.trials = state.trials();
  result.nanowire_yield = state.per_trial_yield.mean();
  result.crosspoint_yield = result.nanowire_yield * result.nanowire_yield;
  const double margin = 1.96 * state.per_trial_yield.stderr_mean();
  result.ci = interval{result.nanowire_yield - margin,
                       result.nanowire_yield + margin};
  return result;
}

mc_yield_result monte_carlo_yield_resume(const trial_context& context,
                                         const mc_options& options,
                                         std::uint64_t run_key,
                                         mc_run_state& state) {
  NWDEC_EXPECTS(options.trials >= 1, "need at least one Monte-Carlo trial");
  if (options.defects.has_value()) options.defects->validate();
  const double sigma_vt =
      options.sigma_vt.value_or(context.design().tech().sigma_vt);
  NWDEC_EXPECTS(sigma_vt >= 0.0, "sigma_vt cannot be negative");
  const fab::defect_params* defects =
      options.defects.has_value() ? &*options.defects : nullptr;

  // This batch covers global trial indices [base, base + trials); slot i
  // belongs to trial base + i alone; workers share nothing else mutable.
  // Workers shard contiguous ranges of *blocks* (block_size trials each,
  // plus a partial tail block) and hand each block to the batched kernel;
  // block_size 1 keeps the scalar per-trial path as the equivalence
  // oracle. Either way slot i holds trial base + i's good count, computed
  // from the same per-trial stream, so results are bit-identical across
  // block sizes and thread counts alike.
  const std::size_t base = state.trials();
  const std::size_t block = options.block_size == 0 ? mc_default_block_size
                                                    : options.block_size;
  const std::size_t shards = (options.trials + block - 1) / block;
  std::vector<std::uint32_t> good(options.trials, 0);
  const auto run_shard = [&](std::size_t begin, std::size_t end) {
    trial_scratch scratch;
    if (block <= 1) {
      for (std::size_t slot = begin; slot < end; ++slot) {
        rng stream = rng::from_counter(run_key, base + slot);
        good[slot] = static_cast<std::uint32_t>(context.run_trial(
            stream, scratch, options.mode, sigma_vt, defects));
      }
      return;
    }
    for (std::size_t slot = begin; slot < end; slot += block) {
      const std::size_t count = std::min(block, end - slot);
      context.run_trial_block(run_key, base + slot, count, scratch,
                              options.mode, sigma_vt, defects,
                              good.data() + slot);
    }
  };

  const std::size_t threads = resolve_thread_count(options.threads, shards);
  if (threads <= 1) {
    run_shard(0, options.trials);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const std::size_t chunk = ((shards + threads - 1) / threads) * block;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t begin = t * chunk;
      const std::size_t end = std::min(options.trials, begin + chunk);
      if (begin >= end) break;
      workers.emplace_back(run_shard, begin, end);
    }
    for (std::thread& worker : workers) worker.join();
  }
  accumulate_trials(state, good, context.nanowire_count());
  return mc_result_from_state(state);
}

mc_yield_result monte_carlo_yield(const trial_context& context,
                                  const mc_options& options,
                                  std::uint64_t run_key) {
  mc_run_state state;
  return monte_carlo_yield_resume(context, options, run_key, state);
}

mc_yield_result monte_carlo_yield(const decoder::decoder_design& design,
                                  const crossbar::contact_group_plan& plan,
                                  const mc_options& options, rng& random) {
  const trial_context context(design, plan);
  const std::uint64_t run_key = random.engine()();
  return monte_carlo_yield(context, options, run_key);
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

mc_yield_result monte_carlo_yield_reference(
    const decoder::decoder_design& design,
    const crossbar::contact_group_plan& plan, mc_mode mode,
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
      const bool ok = mode == mc_mode::window
                          ? reference_window_ok(design, fabbed.realized_vt, i)
                          : reference_operational_ok(
                                design, plan, fabbed.realized_vt, i, members);
      if (ok) ++good;
    }
    good_counts[trial] = static_cast<std::uint32_t>(good);
  }
  mc_run_state state;
  accumulate_trials(state, good_counts, n);
  return mc_result_from_state(state);
}

}  // namespace nwdec::yield
