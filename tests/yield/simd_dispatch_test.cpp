// End-to-end bit-identity of the runtime SIMD dispatch: a whole Monte-Carlo
// run must produce byte-equal results whichever kernel path executes it.
// The scalar per-trial path (the test kit's block-1 oracle, run on the
// forced scalar dispatch path) is the oracle; every available path is
// forced in turn and crossed with kernel block sizes, the engine's thread
// counts, both criteria, and the defect channel. Any per-lane rounding or
// draw-order divergence between the per-ISA kernel translation units
// shows up here as a hard failure, not a statistical drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "mc_oracles.h"
#include "util/cpu.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::yield {
namespace {

struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

void expect_bit_identical(const mc_yield_result& a, const mc_yield_result& b,
                          const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.nanowire_yield, b.nanowire_yield) << what;
  EXPECT_EQ(a.crosspoint_yield, b.crosspoint_yield) << what;
  EXPECT_EQ(a.ci.low, b.ci.low) << what;
  EXPECT_EQ(a.ci.high, b.ci.high) << what;
}

struct design_case {
  const char* name;
  codes::code code;
  std::size_t nanowires;
};

std::vector<design_case> dispatch_designs() {
  std::vector<design_case> cases;
  // Smallest constructible design (margin sweeps collapse to seed + fold)
  // and the paper's mid-size gray decoder.
  cases.push_back({"hot-2x2-N2", codes::make_code(codes::code_type::hot, 2, 2),
                   2});
  cases.push_back({"gray-2x8-N20",
                   codes::make_code(codes::code_type::gray, 2, 8), 20});
  return cases;
}

TEST(SimdDispatchTest, EveryPathBitIdenticalAcrossTheMatrix) {
  path_guard restore;
  const device::technology tech = device::paper_technology();
  for (const design_case& dc : dispatch_designs()) {
    const decoder::decoder_design design(dc.code, dc.nanowires, tech);
    const auto plan =
        crossbar::plan_contact_groups(dc.nanowires, dc.code.size(), tech);
    const trial_context context(design, plan);
    for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
      for (const bool with_defects : {false, true}) {
        mc_options options;
        options.mode = mode;
        options.trials = 97;  // leaves partial tail blocks at every size
        if (with_defects) options.defects = fab::defect_params{0.05, 0.02};

        cpu::force_path(cpu::simd_path::scalar);
        const mc_yield_result oracle =
            testkit::monte_carlo_yield_blocked(context, options, 0xd15bULL, 1);

        for (const cpu::simd_path path : cpu::available_paths()) {
          cpu::force_path(path);
          const std::string what =
              std::string(dc.name) + " path " + cpu::simd_path_name(path) +
              " mode " + std::to_string(static_cast<int>(mode)) +
              " defects " + std::to_string(with_defects);
          for (const std::size_t block : {16UL, 64UL}) {
            expect_bit_identical(
                oracle,
                testkit::monte_carlo_yield_blocked(context, options,
                                                   0xd15bULL, block),
                what + " block " + std::to_string(block));
          }
          for (const std::size_t threads : {1UL, 4UL}) {
            options.threads = threads;
            expect_bit_identical(
                oracle, testkit::monte_carlo_yield(context, options, 0xd15bULL),
                what + " engine threads " + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(SimdDispatchTest, RunTrialBlockMatchesRunTrialAtEveryCount) {
  // run_trial_block at every count from 1 to 64 -- starting mid-stream, so
  // trial indices are not block-aligned -- reproduces `count` scalar
  // run_trial calls on every available path, good count for good count.
  path_guard restore;
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  const trial_context context(design, plan);
  const fab::defect_params defects{0.05, 0.02};
  const std::uint64_t run_key = 0xb10cULL;
  const std::uint64_t first = 5;
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    cpu::force_path(cpu::simd_path::scalar);
    std::vector<std::uint32_t> oracle(64);
    trial_scratch scratch;
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      rng stream = rng::from_counter(run_key, first + t);
      oracle[t] = static_cast<std::uint32_t>(context.run_trial(
          stream, scratch, mode, tech.sigma_vt, &defects));
    }
    for (const cpu::simd_path path : cpu::available_paths()) {
      cpu::force_path(path);
      for (std::size_t count = 1; count <= oracle.size(); ++count) {
        std::vector<std::uint32_t> good(count, 0);
        context.run_trial_block(run_key, first, count, scratch, mode,
                                tech.sigma_vt, &defects, good.data());
        EXPECT_TRUE(std::equal(good.begin(), good.end(), oracle.begin()))
            << cpu::simd_path_name(path) << " mode "
            << static_cast<int>(mode) << " count " << count;
      }
    }
  }
}

TEST(SimdDispatchTest, ScalarOracleItselfIsPathInvariant) {
  // The scalar oracle never touches the lane kernels, but its deviates
  // ride the same dispatched bulk conversions -- so even the oracle must
  // not move when the path does.
  path_guard restore;
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  const trial_context context(design, plan);
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 60;
  options.defects = fab::defect_params{0.05, 0.02};
  cpu::force_path(cpu::simd_path::scalar);
  const mc_yield_result oracle =
      testkit::monte_carlo_yield_blocked(context, options, 7, 1);
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    const mc_yield_result got =
        testkit::monte_carlo_yield_blocked(context, options, 7, 1);
    expect_bit_identical(oracle, got, cpu::simd_path_name(path));
  }
}

}  // namespace
}  // namespace nwdec::yield
