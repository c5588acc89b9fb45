// Bit-identity of the batched Monte-Carlo trial kernel: for every block
// size, thread count, trial count (including partial tail blocks), mode,
// and stochastic channel, the blocked kernel -- and the production engine
// that runs it at mc_default_block_size -- must reproduce the scalar
// per-trial path (trial_context::run_trial, the test kit's block-1
// oracle) to the bit. The batched path changes how deviates are generated
// and how conductance is checked, never which deviates or which verdicts.
#include <gtest/gtest.h>

#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "mc_oracles.h"
#include "util/error.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::yield {
namespace {

struct fixture {
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  decoder::decoder_design design{code, 20, tech};
  crossbar::contact_group_plan plan =
      crossbar::plan_contact_groups(20, code.size(), tech);
  trial_context context{design, plan};
};

void expect_bit_identical(const mc_yield_result& a, const mc_yield_result& b,
                          const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.nanowire_yield, b.nanowire_yield) << what;
  EXPECT_EQ(a.crosspoint_yield, b.crosspoint_yield) << what;
  EXPECT_EQ(a.ci.low, b.ci.low) << what;
  EXPECT_EQ(a.ci.high, b.ci.high) << what;
}

TEST(McBlockKernelTest, BitIdenticalAcrossBlockSizesAndThreads) {
  // Block sizes {7, 64} of the kernel and the engine at threads {1, 4},
  // both criteria, with and without defects, and trial counts that leave
  // partial tail blocks (97 = 64 + 33; 5 < any block).
  fixture f;
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    for (const bool with_defects : {false, true}) {
      for (const std::size_t trials : {1UL, 5UL, 97UL, 256UL}) {
        mc_options options;
        options.mode = mode;
        options.trials = trials;
        if (with_defects) options.defects = fab::defect_params{0.05, 0.02};
        const mc_yield_result oracle =
            testkit::monte_carlo_yield_blocked(f.context, options, 0xfeedULL,
                                               1);
        const std::string what =
            "mode " + std::to_string(static_cast<int>(mode)) + " defects " +
            std::to_string(with_defects) + " trials " +
            std::to_string(trials);

        for (const std::size_t block : {7UL, 64UL}) {
          expect_bit_identical(
              oracle,
              testkit::monte_carlo_yield_blocked(f.context, options,
                                                 0xfeedULL, block),
              what + " block " + std::to_string(block));
        }
        for (const std::size_t threads : {1UL, 4UL}) {
          options.threads = threads;
          expect_bit_identical(
              oracle, testkit::monte_carlo_yield(f.context, options, 0xfeedULL),
              what + " engine threads " + std::to_string(threads));
        }
      }
    }
  }
}

TEST(McBlockKernelTest, DefaultBlockSizeIsTheBatchedKernel) {
  // The engine runs mc_default_block_size blocks of the batched kernel;
  // it must agree with the scalar oracle and with an explicit run at that
  // block size, proving production rides the batched kernel without
  // changing any result.
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 150;
  options.threads = 1;
  const mc_yield_result oracle =
      testkit::monte_carlo_yield_blocked(f.context, options, 2009, 1);
  const mc_yield_result engine =
      testkit::monte_carlo_yield(f.context, options, 2009);
  expect_bit_identical(oracle, engine, "engine");
  expect_bit_identical(
      testkit::monte_carlo_yield_blocked(f.context, options, 2009,
                                         mc_default_block_size),
      engine, "explicit default block");
}

TEST(McBlockKernelTest, AllDefectiveTrialCountsZero) {
  // broken_probability 1 disables every nanowire in every trial; both
  // kernels must agree on the all-zero outcome (and on the degenerate
  // statistics that follow).
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 40;
  options.threads = 1;
  options.defects = fab::defect_params{1.0, 0.0};
  const mc_yield_result oracle =
      testkit::monte_carlo_yield_blocked(f.context, options, 11, 1);
  EXPECT_EQ(oracle.nanowire_yield, 0.0);
  expect_bit_identical(oracle,
                       testkit::monte_carlo_yield_blocked(f.context, options,
                                                          11, 16),
                       "all-defective block 16");
  expect_bit_identical(oracle,
                       testkit::monte_carlo_yield(f.context, options, 11),
                       "all-defective engine");
}

TEST(McBlockKernelTest, SmallestLegalDesign) {
  // Codes need full_length >= 2, so M = 2 with two nanowires is the
  // smallest constructible design (a true single-region sweep is covered
  // at the decoder kernel level); the margin sweeps collapse to a seed
  // pass plus one fold and must still agree with the scalar path.
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::hot, 2, 2);
  decoder::decoder_design design(code, 2, tech);
  const auto plan = crossbar::plan_contact_groups(2, code.size(), tech);
  const trial_context context(design, plan);
  for (const mc_mode mode : {mc_mode::window, mc_mode::operational}) {
    mc_options options;
    options.mode = mode;
    options.trials = 33;
    options.threads = 1;
    const mc_yield_result oracle =
        testkit::monte_carlo_yield_blocked(context, options, 3, 1);
    expect_bit_identical(
        oracle, testkit::monte_carlo_yield_blocked(context, options, 3, 8),
        "single-region block 8");
    expect_bit_identical(oracle,
                         testkit::monte_carlo_yield(context, options, 3),
                         "single-region engine");
  }
}

TEST(McBlockKernelTest, ResumeSchedulesAgreeAcrossBlockSizes) {
  // Any batch schedule summing to T is one fixed T-trial run, bit for bit
  // (mc_run_state contract) -- for the engine and for the kernel at any
  // block size, so the sweep service's adaptive budgets ride the batched
  // kernel unchanged. Batches of 50 and 67 split blocks mid-way.
  fixture f;
  mc_options options;
  options.mode = mc_mode::operational;
  options.trials = 120;
  options.threads = 1;
  const mc_yield_result fixed =
      testkit::monte_carlo_yield_blocked(f.context, options, 17, 1);

  for (const std::size_t block : {7UL, 32UL}) {
    mc_run_state state;
    mc_yield_result resumed;
    for (const std::size_t batch : {50UL, 3UL, 67UL}) {
      options.trials = batch;
      resumed = testkit::monte_carlo_yield_blocked(f.context, options, 17,
                                                   block, state);
    }
    expect_bit_identical(fixed, resumed, "block " + std::to_string(block));
  }
  mc_run_state state;
  mc_yield_result resumed;
  for (const std::size_t batch : {50UL, 3UL, 67UL}) {
    options.trials = batch;
    resumed = monte_carlo_yield_resume(f.context, options, 17, state);
  }
  expect_bit_identical(fixed, resumed, "engine");
}

}  // namespace
}  // namespace nwdec::yield
