// CI-width stopping: the batch schedule, its determinism across thread
// counts, the equivalence of batched and fixed runs at equal totals, and
// the trials-saved behavior the bench reports.
#include "service/adaptive_budget.h"

#include <gtest/gtest.h>

#include "core/sweep_engine.h"
#include "util/error.h"
#include "util/stats.h"

namespace nwdec::service {
namespace {

core::sweep_engine make_engine() {
  return core::sweep_engine(crossbar::crossbar_spec{},
                            device::paper_technology());
}

core::sweep_request mc_point(double sigma, std::size_t cap) {
  core::sweep_request request;
  request.design = {codes::code_type::balanced_gray, 2, 8};
  request.sigma_vt = sigma;
  request.mc_trials = cap;
  return request;
}

// The engine's per-point plan for a point run under `policy`.
core::mc_plan adaptive_plan(const adaptive_options& policy) {
  core::mc_plan plan;
  plan.adaptive = policy;
  return plan;
}

TEST(AdaptiveBudgetTest, ValidatesOptions) {
  adaptive_options options;
  EXPECT_NO_THROW(options.validate());
  options.target_half_width = 0.0;
  EXPECT_THROW(options.validate(), invalid_argument_error);
  options = {};
  options.initial_batch = 0;
  EXPECT_THROW(options.validate(), invalid_argument_error);
  options = {};
  options.growth = 1.0;
  EXPECT_THROW(options.validate(), invalid_argument_error);
}

TEST(AdaptiveBudgetTest, ScheduleGrowsGeometricallyUntilConverged) {
  adaptive_options options;
  options.initial_batch = 64;
  options.growth = 2.0;
  options.target_half_width = 0.02;

  EXPECT_EQ(next_batch(options, 0, 1.0), 64u);  // first batch

  // Not converged (half-width 0.1): grow the total to the next rung.
  EXPECT_EQ(next_batch(options, 64, 0.1), 64u);
  EXPECT_EQ(next_batch(options, 128, 0.1), 128u);
  EXPECT_EQ(next_batch(options, 256, 0.1), 256u);

  EXPECT_EQ(next_batch(options, 256, 0.02), 0u);  // at the target: stop
}

TEST(AdaptiveBudgetTest, FingerprintSeparatesPolicies) {
  adaptive_options a;
  adaptive_options b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.target_half_width = 0.01;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.initial_batch = 128;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.growth = 1.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);  // never the fixed-budget sentinel
}

TEST(AdaptiveBudgetTest, StopsEarlyOnEasyPointsAndRecordsTrialsUsed) {
  const core::sweep_engine engine = make_engine();
  core::sweep_engine_options options;
  options.seed = 11;
  options.threads = 1;
  adaptive_options adaptive;
  adaptive.target_half_width = 0.02;

  // sigma = 0: every trial yields the full array, the estimate pins to a
  // degenerate proportion and converges at the first growth check.
  // sigma = 0.08 sits at the cliff where the variance is maximal.
  const core::sweep_engine_report report =
      engine.run({mc_point(0.0, 100000), mc_point(0.08, 100000)}, options,
                 {adaptive_plan(adaptive), adaptive_plan(adaptive)});
  const core::sweep_engine_entry& easy = report.entries[0];
  const core::sweep_engine_entry& hard = report.entries[1];

  EXPECT_TRUE(easy.evaluation.has_monte_carlo);
  EXPECT_GT(easy.mc_trials_used, 0u);
  EXPECT_LT(easy.mc_trials_used, 2048u);
  EXPECT_GT(hard.mc_trials_used, easy.mc_trials_used);
  EXPECT_LE(hard.mc_trials_used, 100000u);

  // Both points stopped because they met the target (not the cap): the
  // final Wilson half-width honors it.
  for (const core::sweep_engine_entry& entry : report.entries) {
    const double trials = static_cast<double>(entry.mc_trials_used);
    const double half_width = wilson_half_width(
        entry.evaluation.mc_nanowire_yield * trials, trials);
    EXPECT_LE(half_width, adaptive.target_half_width);
  }
}

TEST(AdaptiveBudgetTest, CapsAtTheRequestedTrials) {
  const core::sweep_engine engine = make_engine();
  core::sweep_engine_options options;
  options.seed = 11;
  adaptive_options adaptive;
  adaptive.target_half_width = 1e-6;  // unreachable: always hit the cap
  const core::sweep_engine_report report =
      engine.run({mc_point(0.05, 500)}, options, {adaptive_plan(adaptive)});
  EXPECT_EQ(report.entries[0].mc_trials_used, 500u);
}

TEST(AdaptiveBudgetTest, BatchedRunsMatchFixedRunsBitIdentically) {
  // A batch schedule summing to T is bit-identical to one fixed T-trial
  // run: same per-trial streams, same fold order.
  const core::sweep_engine engine = make_engine();
  core::sweep_engine_options fixed;
  fixed.seed = 23;
  const core::sweep_engine_report straight =
      engine.run({mc_point(0.06, 448)}, fixed);

  core::sweep_engine_options batched = fixed;
  adaptive_options adaptive;
  adaptive.initial_batch = 64;
  adaptive.growth = 2.0;
  adaptive.target_half_width = 1e-9;  // never converges: 64+64+128+192=448
  const core::sweep_engine_report adaptive_run =
      engine.run({mc_point(0.06, 448)}, batched, {adaptive_plan(adaptive)});

  EXPECT_EQ(adaptive_run.entries[0].mc_trials_used, 448u);
  EXPECT_EQ(adaptive_run.entries[0].evaluation.mc_nanowire_yield,
            straight.entries[0].evaluation.mc_nanowire_yield);
  EXPECT_EQ(adaptive_run.entries[0].evaluation.mc_ci_low,
            straight.entries[0].evaluation.mc_ci_low);
  EXPECT_EQ(adaptive_run.entries[0].evaluation.mc_ci_high,
            straight.entries[0].evaluation.mc_ci_high);
}

TEST(AdaptiveBudgetTest, BitIdenticalAcrossThreadCounts) {
  const core::sweep_engine engine = make_engine();
  adaptive_options adaptive;
  adaptive.target_half_width = 0.03;
  const auto run_with = [&](std::size_t threads) {
    core::sweep_engine_options options;
    options.seed = 5;
    options.threads = threads;
    return engine.run({mc_point(0.05, 20000), mc_point(0.08, 20000)},
                      options,
                      {adaptive_plan(adaptive), adaptive_plan(adaptive)});
  };
  const core::sweep_engine_report one = run_with(1);
  const core::sweep_engine_report eight = run_with(8);
  for (std::size_t k = 0; k < one.entries.size(); ++k) {
    EXPECT_EQ(one.entries[k].mc_trials_used, eight.entries[k].mc_trials_used);
    EXPECT_EQ(one.entries[k].evaluation.mc_nanowire_yield,
              eight.entries[k].evaluation.mc_nanowire_yield);
    EXPECT_EQ(one.entries[k].evaluation.mc_ci_low,
              eight.entries[k].evaluation.mc_ci_low);
  }
}

}  // namespace
}  // namespace nwdec::service
