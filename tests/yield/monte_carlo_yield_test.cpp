#include "yield/monte_carlo_yield.h"

#include <gtest/gtest.h>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "mc_oracles.h"
#include "yield/analytic_yield.h"

namespace nwdec::yield {
namespace {

// One-worker engine options (the engine is bit-identical at any count).
mc_options trials_of(mc_mode mode, std::size_t trials,
                     std::optional<fab::defect_params> defects = {}) {
  mc_options options;
  options.mode = mode;
  options.trials = trials;
  options.defects = defects;
  return options;
}

struct fixture {
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  decoder::decoder_design design{code, 20, tech};
  crossbar::contact_group_plan plan =
      crossbar::plan_contact_groups(20, code.size(), tech);
};

TEST(MonteCarloYieldTest, WindowModeMatchesAnalyticModel) {
  // The analytic model integrates exactly the window criterion, so the
  // Monte Carlo must converge on it (the key model cross-validation).
  fixture f;
  const yield_result analytic = analytic_yield(f.design, f.plan);
  rng random(123);
  const mc_yield_result mc = testkit::monte_carlo_yield(
      f.design, f.plan, trials_of(mc_mode::window, 600), random);
  EXPECT_NEAR(mc.nanowire_yield, analytic.nanowire_yield, 0.02);
  EXPECT_LE(mc.ci.low, analytic.nanowire_yield);
  EXPECT_GE(mc.ci.high, analytic.nanowire_yield);
}

TEST(MonteCarloYieldTest, OperationalYieldDominatesWindowYield) {
  // The window criterion is sufficient but not necessary for a correct
  // decode, so operational yield must be at least the window yield.
  fixture f;
  rng r1(7);
  rng r2(7);
  const mc_yield_result window = testkit::monte_carlo_yield(
      f.design, f.plan, trials_of(mc_mode::window, 300), r1);
  const mc_yield_result operational = testkit::monte_carlo_yield(
      f.design, f.plan, trials_of(mc_mode::operational, 300), r2);
  EXPECT_GE(operational.nanowire_yield, window.nanowire_yield - 0.01);
}

TEST(MonteCarloYieldTest, DeterministicGivenSeed) {
  fixture f;
  rng a(99);
  rng b(99);
  const mc_options options = trials_of(mc_mode::operational, 50);
  const mc_yield_result ra =
      testkit::monte_carlo_yield(f.design, f.plan, options, a);
  const mc_yield_result rb =
      testkit::monte_carlo_yield(f.design, f.plan, options, b);
  EXPECT_DOUBLE_EQ(ra.nanowire_yield, rb.nanowire_yield);
}

TEST(MonteCarloYieldTest, ZeroVariabilityZeroBandIsPerfect) {
  device::technology tech = device::paper_technology();
  tech.sigma_vt = 0.0;
  tech.boundary_band_nm = 0.0;
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  rng random(5);
  const mc_yield_result mc = testkit::monte_carlo_yield(
      design, plan, trials_of(mc_mode::operational, 20), random);
  EXPECT_DOUBLE_EQ(mc.nanowire_yield, 1.0);
}

TEST(MonteCarloYieldTest, BoundarySamplingConvergesToExpectation) {
  device::technology tech = device::paper_technology();
  tech.sigma_vt = 0.0;  // isolate the contact-loss channel
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  rng random(5);
  const mc_yield_result mc = testkit::monte_carlo_yield(
      design, plan, trials_of(mc_mode::window, 800), random);
  const double expected = 1.0 - plan.expected_discarded() / 20.0;
  EXPECT_NEAR(mc.nanowire_yield, expected, 0.01);
}

TEST(MonteCarloYieldTest, DefectsLowerTheYield) {
  fixture f;
  rng r1(11);
  rng r2(11);
  const mc_yield_result clean = testkit::monte_carlo_yield(
      f.design, f.plan, trials_of(mc_mode::window, 200), r1);
  const mc_yield_result defective = testkit::monte_carlo_yield(
      f.design, f.plan,
      trials_of(mc_mode::window, 200, fab::defect_params{0.15, 0.05}), r2);
  EXPECT_LT(defective.nanowire_yield, clean.nanowire_yield - 0.05);
}

TEST(MonteCarloYieldTest, InvalidTrialCountRejected) {
  fixture f;
  rng random(1);
  EXPECT_THROW(
      testkit::monte_carlo_yield(f.design, f.plan,
                                 trials_of(mc_mode::window, 0), random),
      invalid_argument_error);
}

}  // namespace
}  // namespace nwdec::yield
