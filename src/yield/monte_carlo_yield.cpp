#include "yield/monte_carlo_yield.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace nwdec::yield {

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
  // belongs to trial base + i alone and runners share nothing else
  // mutable. Runners pull whole blocks (plus a partial tail block) and hand
  // each to the batched kernel, so slot i holds trial base + i's good
  // count whichever runner computed it: the bits never depend on the
  // thread count.
  const std::size_t base = state.trials();
  const std::size_t block = mc_default_block_size;
  const std::size_t blocks = (options.trials + block - 1) / block;
  std::vector<std::uint32_t> good(options.trials, 0);
  const std::size_t runners = runner_count(blocks, options.threads);
  std::vector<trial_scratch> scratch(runners);
  parallel_for(blocks, runners, [&](std::size_t runner, std::size_t index) {
    const std::size_t slot = index * block;
    context.run_trial_block(run_key, base + slot,
                            std::min(block, options.trials - slot),
                            scratch[runner], options.mode, sigma_vt, defects,
                            good.data() + slot);
  });
  // Fold in trial order, so the result is independent of which runner
  // produced which slot (and of how the run was batched).
  const double nanowires = static_cast<double>(context.nanowire_count());
  for (const std::uint32_t g : good) {
    state.per_trial_yield.add(static_cast<double>(g) / nanowires);
  }
  return mc_result_from_state(state);
}

}  // namespace nwdec::yield
