#include "fab/defects.h"

#include <gtest/gtest.h>

namespace nwdec::fab {
namespace {

TEST(DefectsTest, ZeroRatesYieldCleanMap) {
  rng random(1);
  const defect_map map = sample_defects(50, defect_params{}, random);
  EXPECT_EQ(map.usable_count(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_FALSE(map.disables(i));
}

TEST(DefectsTest, BrokenRateOneKillsEverything) {
  rng random(1);
  const defect_map map =
      sample_defects(20, defect_params{1.0, 0.0}, random);
  EXPECT_EQ(map.usable_count(), 0u);
}

TEST(DefectsTest, BridgeDisablesBothNeighbors) {
  rng random(1);
  defect_map map = sample_defects(5, defect_params{}, random);
  map.bridged_to_next[2] = true;  // short between nanowires 2 and 3
  EXPECT_FALSE(map.disables(1));
  EXPECT_TRUE(map.disables(2));
  EXPECT_TRUE(map.disables(3));
  EXPECT_FALSE(map.disables(4));
  EXPECT_EQ(map.usable_count(), 3u);
}

TEST(DefectsTest, RatesApproximateFrequencies) {
  rng random(33);
  std::size_t broken = 0;
  const std::size_t trials = 200;
  const std::size_t n = 100;
  for (std::size_t t = 0; t < trials; ++t) {
    const defect_map map =
        sample_defects(n, defect_params{0.1, 0.0}, random);
    for (std::size_t i = 0; i < n; ++i) {
      if (map.broken[i]) ++broken;
    }
  }
  EXPECT_NEAR(static_cast<double>(broken) / (trials * n), 0.1, 0.01);
}

TEST(DefectsTest, InvalidRatesRejected) {
  rng random(1);
  EXPECT_THROW(sample_defects(10, defect_params{-0.1, 0.0}, random),
               invalid_argument_error);
  EXPECT_THROW(sample_defects(10, defect_params{0.0, 1.5}, random),
               invalid_argument_error);
  EXPECT_THROW(sample_defects(0, defect_params{}, random),
               invalid_argument_error);
}

TEST(DefectsTest, SampleIntoMatchesAllocatingForm) {
  rng fresh(13);
  const defect_map expected = sample_defects(40, defect_params{0.2, 0.1}, fresh);
  rng reused(13);
  defect_map out;
  sample_defects_into(40, defect_params{0.2, 0.1}, reused, out);
  EXPECT_EQ(out.broken, expected.broken);
  EXPECT_EQ(out.bridged_to_next, expected.bridged_to_next);

  // Reuse with a smaller cave must shrink the buffers.
  sample_defects_into(10, defect_params{0.2, 0.1}, reused, out);
  EXPECT_EQ(out.broken.size(), 10u);
  EXPECT_EQ(out.bridged_to_next.size(), 9u);
}

TEST(DefectsTest, BlockFormMatchesSampleDefectsInto) {
  // The blocked kernel's SoA disable computation, fed the canonicals the
  // stream draws next, must agree with defect_map::disables for every
  // nanowire -- across sizes including the one-wire edge (no bridge draws
  // at all).
  for (const std::size_t nanowires : {1UL, 2UL, 5UL, 40UL}) {
    for (const defect_params params :
         {defect_params{0.2, 0.1}, defect_params{0.0, 0.0},
          defect_params{1.0, 1.0}}) {
      block_rng reference(77);
      defect_map expected;
      sample_defects_into(nanowires, params, reference, expected);

      block_rng blocked(77);
      std::vector<double> uniforms(defect_draw_count(nanowires));
      for (double& u : uniforms) u = blocked.canonical();
      std::vector<std::uint8_t> disabled(nanowires, 2);
      defect_disables_from_uniforms(nanowires, params, uniforms.data(),
                                    disabled.data());
      for (std::size_t i = 0; i < nanowires; ++i) {
        ASSERT_EQ(expected.disables(i), disabled[i] != 0)
            << "n " << nanowires << " wire " << i;
      }
      EXPECT_EQ(reference.next(), blocked.next()) << "n " << nanowires;
    }
  }
}

TEST(DefectsTest, DisablesFromUniformsIsPureInItsInputs) {
  // Hand-built uniforms: wire 1 broken, bridge between 3 and 4.
  const std::size_t n = 6;
  const defect_params params{0.5, 0.5};
  std::vector<double> uniforms(defect_draw_count(n), 0.9);
  uniforms[1] = 0.1;      // broken draw, wire 1
  uniforms[n + 3] = 0.1;  // bridge draw, gap 3-4
  std::vector<std::uint8_t> disabled(n, 2);
  defect_disables_from_uniforms(n, params, uniforms.data(), disabled.data());
  const std::vector<std::uint8_t> expected = {0, 1, 0, 1, 1, 0};
  EXPECT_EQ(disabled, expected);
}

TEST(DefectsTest, DrawCountMatchesStreamContract) {
  EXPECT_EQ(defect_draw_count(1), 1u);
  EXPECT_EQ(defect_draw_count(2), 3u);
  EXPECT_EQ(defect_draw_count(50), 99u);
}

TEST(DefectsTest, OutOfRangeIndexThrows) {
  rng random(1);
  const defect_map map = sample_defects(5, defect_params{}, random);
  EXPECT_THROW(map.disables(5), invalid_argument_error);
}

}  // namespace
}  // namespace nwdec::fab
