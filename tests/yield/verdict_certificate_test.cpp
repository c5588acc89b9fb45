// The verdict certificate of trial_context::run_trial_block: the blocked
// kernel's deviates are only certified to deviate_rel_bound (util/rng.h),
// so a lane whose realized V_T sits within the certification band of a
// threshold is re-derived from the trial's exact stream. These tests place
// a realized V_T exactly on a drive level (operational) and on a window
// edge (window) by the choice of sigma, and check that the fallback fires
// and that every good count still equals the scalar run_trial's.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "device/tech_params.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "yield/monte_carlo_yield.h"
#include "yield/trial_context.h"

namespace nwdec::yield {
namespace {

constexpr std::uint64_t kRunKey = 0xce47ULL;
constexpr std::uint64_t kTarget = 500;  // the trial placed on a threshold

struct fixture {
  device::technology tech = device::paper_technology();
  codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  decoder::decoder_design design{code, 20, tech};
  crossbar::contact_group_plan plan =
      crossbar::plan_contact_groups(20, code.size(), tech);
  trial_context context{design, plan};
};

// The sigma that realizes the target trial's V_T exactly on a threshold:
// on a drive level (operational) or on nominal +- the window half-width
// (window), at the first cell whose exact deviate allows it.
double sigma_on_threshold(const fixture& f, mc_mode mode) {
  const std::size_t regions = f.design.region_count();
  const std::size_t cells = f.design.nanowire_count() * regions;
  std::vector<double> z(cells);
  rng::from_counter(kRunKey, kTarget).standard_normal_fill(z.data(), cells);
  const device::vt_levels& levels = f.design.levels();
  for (std::size_t k = 0; k < cells; ++k) {
    if (std::abs(z[k]) < 0.5) continue;
    const codes::digit digit = f.design.pattern()(k / regions, k % regions);
    const double nominal = levels.level(digit);
    const double noise = std::sqrt(
        static_cast<double>(f.design.dose_counts()(k / regions, k % regions)));
    double gap = 0.0;  // threshold - nominal, same sign as z
    if (mode == mc_mode::window) {
      gap = z[k] > 0 ? levels.window_half_width()
                     : -levels.window_half_width();
    } else if (z[k] > 0) {
      gap = levels.drive_voltage(digit) - nominal;
    } else if (digit > 0) {
      gap = levels.drive_voltage(static_cast<codes::digit>(digit - 1)) -
            nominal;
    } else {
      continue;
    }
    return gap / (noise * z[k]);
  }
  ADD_FAILURE() << "no cell can be placed on a threshold";
  return 0.0;
}

struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

void expect_certified_blocks(mc_mode mode, std::size_t min_count,
                             std::size_t max_count) {
  const fixture f;
  const double sigma = sigma_on_threshold(f, mode);
  ASSERT_GT(sigma, 0.0);
  // The scalar oracle for every trial any block below touches.
  std::map<std::uint64_t, std::uint32_t> oracle;
  trial_scratch oracle_scratch;
  for (std::uint64_t i = kTarget - max_count; i <= kTarget + max_count; ++i) {
    rng stream = rng::from_counter(kRunKey, i);
    oracle[i] = static_cast<std::uint32_t>(
        f.context.run_trial(stream, oracle_scratch, mode, sigma, nullptr));
  }
  path_guard restore;
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    trial_scratch scratch;
    std::vector<std::uint32_t> good(max_count);
    for (std::size_t count = min_count; count <= max_count; ++count) {
      // The target lane cycles through the block's first, last and
      // middle lane as the count grows.
      const std::size_t lane = count % 3 == 0   ? 0
                               : count % 3 == 1 ? count - 1
                                                : count / 2;
      const std::uint64_t first = kTarget - lane;
      const std::size_t before = scratch.fallback_lanes;
      f.context.run_trial_block(kRunKey, first, count, scratch, mode, sigma,
                                nullptr, good.data());
      const std::string what = std::string(cpu::simd_path_name(path)) +
                               " count " + std::to_string(count);
      ASSERT_GE(scratch.fallback_lanes, before + 1) << what;
      for (std::size_t t = 0; t < count; ++t) {
        ASSERT_EQ(good[t], oracle.at(first + t)) << what << " lane " << t;
      }
    }
  }
}

TEST(VerdictCertificateTest, OperationalFallbackOnADriveLevelSmallBlocks) {
  expect_certified_blocks(mc_mode::operational, 1, 64);
}

TEST(VerdictCertificateTest, OperationalFallbackOnADriveLevelWideBlocks) {
  expect_certified_blocks(mc_mode::operational, 65, 200);
}

TEST(VerdictCertificateTest, WindowFallbackOnAWindowEdgeSmallBlocks) {
  expect_certified_blocks(mc_mode::window, 1, 64);
}

TEST(VerdictCertificateTest, WindowFallbackOnAWindowEdgeWideBlocks) {
  expect_certified_blocks(mc_mode::window, 65, 200);
}

TEST(VerdictCertificateTest, NoFallbackAtTheTechnologySigma) {
  // Away from a contrived threshold hit the band is ~1e-12 wide, so a
  // production-sized run re-derives nothing.
  const fixture f;
  trial_scratch scratch;
  std::vector<std::uint32_t> good(mc_default_block_size);
  for (const mc_mode mode : {mc_mode::operational, mc_mode::window}) {
    for (std::uint64_t first = 0; first < 4000;
         first += mc_default_block_size) {
      f.context.run_trial_block(kRunKey, first, mc_default_block_size,
                                scratch, mode, f.tech.sigma_vt, nullptr,
                                good.data());
    }
  }
  EXPECT_EQ(scratch.fallback_lanes, 0u);
}

}  // namespace
}  // namespace nwdec::yield
