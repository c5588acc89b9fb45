// Cross-module integration checks: every quantity that can be computed two
// independent ways must agree, and the full pipeline must be deterministic.
#include <gtest/gtest.h>

#include "codes/arrangement.h"
#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "crossbar/memory.h"
#include "decoder/addressing.h"
#include "decoder/decoder_design.h"
#include "decoder/pattern_matrix.h"
#include "device/tech_params.h"
#include "fab/process_flow.h"
#include "fab/process_sim.h"
#include "mc_oracles.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec {
namespace {

TEST(PipelineTest, PhiCountedTwoWaysAgreesAcrossTheGrid) {
  const device::technology tech = device::paper_technology();
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray, codes::code_type::hot,
        codes::code_type::arranged_hot}) {
    for (const std::size_t m : {std::size_t{6}, std::size_t{8}}) {
      const decoder::decoder_design design(codes::make_code(type, 2, m), 20,
                                           tech);
      const fab::process_flow flow = fab::build_process_flow(design);
      EXPECT_EQ(flow.lithography_step_count(),
                design.fabrication_complexity())
          << codes::code_type_name(type) << "-" << m;
    }
  }
}

TEST(PipelineTest, SimulatedDoseCountsReproduceNuAcrossCodes) {
  const device::technology tech = device::paper_technology();
  rng random(17);
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::arranged_hot}) {
    const decoder::decoder_design design(codes::make_code(type, 2, 8), 20,
                                         tech);
    const fab::process_simulator sim(design);
    rng stream = random.fork();
    EXPECT_EQ(sim.run(stream).doses_received, design.dose_counts())
        << codes::code_type_name(type);
  }
}

TEST(PipelineTest, FabricatedCaveDecodesThroughTheMemory) {
  // Fabricate one half cave, decide usability with the operational
  // criterion, then check every usable nanowire serves memory traffic.
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::balanced_gray,
                                            2, 8);
  const decoder::decoder_design design(code, 16, tech);
  const fab::process_simulator sim(design);
  rng random(29);
  const fab::fab_result fabbed = sim.run(random);

  // Usability of nanowire i: its own address selects it alone.
  std::vector<bool> usable(16);
  for (std::size_t i = 0; i < 16; ++i) {
    const codes::code_word address =
        decoder::pattern_row(design.pattern(), 2, i);
    const std::vector<double> drive =
        decoder::drive_pattern(address, design.levels());
    bool ok = decoder::conducts(fabbed.realized_vt.row(i), drive);
    for (std::size_t k = 0; ok && k < 16; ++k) {
      if (k != i && decoder::conducts(fabbed.realized_vt.row(k), drive)) {
        ok = false;
      }
    }
    usable[i] = ok;
  }

  std::vector<codes::code_word> words(code.words.begin(),
                                      code.words.begin() + 16);
  crossbar::crossbar_memory memory(decoder::address_table{words},
                                   decoder::address_table{words}, usable,
                                   usable);

  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      const bool value = (i + j) % 2 == 0;
      const bool wrote = memory.write(words[i], words[j], value);
      EXPECT_EQ(wrote, usable[i] && usable[j]);
      const auto read = memory.read(words[i], words[j]);
      EXPECT_EQ(read.has_value(), usable[i] && usable[j]);
      if (read.has_value()) {
        EXPECT_EQ(*read, value);
      }
    }
  }
}

TEST(PipelineTest, FullEvaluationIsDeterministic) {
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan =
      crossbar::plan_contact_groups(20, code.size(), tech);

  const double y1 = yield::analytic_yield(design, plan).nanowire_yield;
  const double y2 = yield::analytic_yield(design, plan).nanowire_yield;
  EXPECT_DOUBLE_EQ(y1, y2);

  rng a(1);
  rng b(1);
  yield::mc_options options;
  options.mode = yield::mc_mode::operational;
  options.trials = 40;
  EXPECT_DOUBLE_EQ(
      testkit::monte_carlo_yield(design, plan, options, a).nanowire_yield,
      testkit::monte_carlo_yield(design, plan, options, b).nanowire_yield);
}

TEST(PipelineTest, WindowCriterionIsSufficientForPerfectDecode) {
  // The theorem behind the analytic yield model: if every region of every
  // nanowire lands inside its addressability window, the decode of the
  // whole group is perfect -- each address selects exactly its nanowire.
  // Check it on fabricated caves by filtering trials where all regions
  // are in-window and asserting the operational criterion never disagrees.
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 6);
  const decoder::decoder_design design(code, 8, tech);
  const fab::process_simulator sim(design);
  const double window = design.levels().window_half_width();

  rng random(101);
  std::size_t all_in_window_caves = 0;
  for (std::size_t trial = 0; trial < 300; ++trial) {
    rng stream = random.fork();
    const fab::fab_result fabbed = sim.run(stream);

    bool all_in_window = true;
    for (std::size_t i = 0; all_in_window && i < 8; ++i) {
      for (std::size_t j = 0; j < design.region_count(); ++j) {
        const codes::digit value = design.pattern()(i, j);
        const double delta =
            fabbed.realized_vt(i, j) - design.levels().level(value);
        if (delta >= window || (value != 0 && delta <= -window)) {
          all_in_window = false;
          break;
        }
      }
    }
    if (!all_in_window) continue;
    ++all_in_window_caves;

    for (std::size_t i = 0; i < 8; ++i) {
      const codes::code_word address =
          decoder::pattern_row(design.pattern(), 2, i);
      const std::vector<double> drive =
          decoder::drive_pattern(address, design.levels());
      for (std::size_t k = 0; k < 8; ++k) {
        EXPECT_EQ(decoder::conducts(fabbed.realized_vt.row(k), drive), k == i)
            << "trial " << trial << " address " << i << " nanowire " << k;
      }
    }
  }
  // The filter must actually fire for the test to mean anything.
  EXPECT_GT(all_in_window_caves, 10u);
}

TEST(PipelineTest, DoseCountsEqualSuffixTransitionsPlusOne) {
  // Cross-module identity: nu[i][j] = 1 + (digit-j transitions among
  // pattern rows i..N-1). Links codes::per_digit_transitions with
  // decoder::dose_count_matrix through Proposition 2.
  const device::technology tech = device::paper_technology();
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::balanced_gray,
        codes::code_type::arranged_hot}) {
    const codes::code code = codes::make_code(type, 2, 8);
    const decoder::decoder_design design(code, 20, tech);
    const std::vector<codes::code_word> rows = code.pattern_sequence(20);

    for (std::size_t i = 0; i < 20; ++i) {
      const std::vector<codes::code_word> suffix(rows.begin() +
                                                     static_cast<std::ptrdiff_t>(i),
                                                 rows.end());
      const std::vector<std::size_t> transitions =
          codes::per_digit_transitions(suffix, /*cyclic=*/false);
      for (std::size_t j = 0; j < design.region_count(); ++j) {
        EXPECT_EQ(design.dose_counts()(i, j), transitions[j] + 1)
            << codes::code_type_name(type) << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(PipelineTest, TernaryPipelineEndToEnd) {
  // The whole stack also runs at higher logic levels.
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 3, 6);
  const decoder::decoder_design design(code, 15, tech);
  const auto plan = crossbar::plan_contact_groups(15, code.size(), tech);
  const yield::yield_result y = yield::analytic_yield(design, plan);
  EXPECT_GT(y.nanowire_yield, 0.0);
  EXPECT_LE(y.nanowire_yield, 1.0);

  yield::mc_options options;
  options.mode = yield::mc_mode::window;
  options.trials = 100;
  rng random(3);
  const yield::mc_yield_result mc =
      testkit::monte_carlo_yield(design, plan, options, random);
  EXPECT_NEAR(mc.nanowire_yield, y.nanowire_yield, 0.06);
}

}  // namespace
}  // namespace nwdec
