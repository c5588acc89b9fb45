// End-to-end checks of the quantitative claims in Sec. 6.2 of the paper,
// run on the default platform (16 kB crossbar, N = 20, sigma_T = 50 mV).
// Absolute agreement with the authors' testbed is not expected; these
// tests pin the *direction* of every claim and keep each measured ratio
// inside a generous band around the reported one, so regressions in the
// model surface immediately.
#include <gtest/gtest.h>

#include "core/experiments.h"

namespace nwdec::core {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sweep_engine engine(crossbar::crossbar_spec{},
                              device::paper_technology());
    results_ = new std::vector<sweep_engine_entry>(
        engine.run(sweep_axes{.designs = yield_grid()}).entries);
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static const design_evaluation& get(codes::code_type type,
                                      std::size_t length) {
    return find_evaluation(*results_, type, length);
  }

  static std::vector<sweep_engine_entry>* results_;
};

std::vector<sweep_engine_entry>* PaperClaims::results_ = nullptr;

TEST_F(PaperClaims, YieldRisesWithCodeLengthForTreeFamily) {
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray}) {
    EXPECT_LT(get(type, 6).crosspoint_yield, get(type, 8).crosspoint_yield);
    EXPECT_LT(get(type, 8).crosspoint_yield, get(type, 10).crosspoint_yield);
  }
}

TEST_F(PaperClaims, HotCodeYieldSaturatesAroundLengthSix) {
  // "This decrease is just slightly seen for the hot code when M increases
  // beyond 6."
  EXPECT_LT(get(codes::code_type::hot, 4).crosspoint_yield,
            get(codes::code_type::hot, 6).crosspoint_yield);
  EXPECT_GE(get(codes::code_type::hot, 6).crosspoint_yield,
            get(codes::code_type::hot, 8).crosspoint_yield - 0.02);
}

TEST_F(PaperClaims, TreeCode6To10GainIsSubstantial) {
  // Paper: ~ +40%. Accept a broad band; the direction and magnitude class
  // are the reproduced claims.
  const double gain = 100.0 * (get(codes::code_type::tree, 10).crosspoint_yield /
                                   get(codes::code_type::tree, 6).crosspoint_yield -
                               1.0);
  EXPECT_GT(gain, 15.0);
  EXPECT_LT(gain, 80.0);
}

TEST_F(PaperClaims, ArrangedHot4To8GainNear40Percent) {
  const double gain =
      100.0 * (get(codes::code_type::arranged_hot, 8).crosspoint_yield /
                   get(codes::code_type::arranged_hot, 4).crosspoint_yield -
               1.0);
  EXPECT_GT(gain, 20.0);
  EXPECT_LT(gain, 80.0);
}

TEST_F(PaperClaims, BalancedGrayBeatsTreeAt8Near42Percent) {
  const double gain =
      100.0 * (get(codes::code_type::balanced_gray, 8).crosspoint_yield /
                   get(codes::code_type::tree, 8).crosspoint_yield -
               1.0);
  EXPECT_GT(gain, 25.0);
  EXPECT_LT(gain, 75.0);
}

TEST_F(PaperClaims, ArrangedHotBeatsHotAt8Near19Percent) {
  const double gain =
      100.0 * (get(codes::code_type::arranged_hot, 8).crosspoint_yield /
                   get(codes::code_type::hot, 8).crosspoint_yield -
               1.0);
  EXPECT_GT(gain, 8.0);
  EXPECT_LT(gain, 35.0);
}

TEST_F(PaperClaims, TreeBitAreaFallsSharplyWithCodeLength) {
  // Paper: -51% from M = 6 to M = 10.
  const double saving =
      100.0 * (1.0 - get(codes::code_type::tree, 10).bit_area_nm2 /
                         get(codes::code_type::tree, 6).bit_area_nm2);
  EXPECT_GT(saving, 20.0);
  EXPECT_LT(saving, 65.0);
}

TEST_F(PaperClaims, BalancedGrayDenserThanTreeAt8Near30Percent) {
  const double saving =
      100.0 * (1.0 - get(codes::code_type::balanced_gray, 8).bit_area_nm2 /
                         get(codes::code_type::tree, 8).bit_area_nm2);
  EXPECT_GT(saving, 15.0);
  EXPECT_LT(saving, 50.0);
}

TEST_F(PaperClaims, OptimizedCodesReachSub250nm2BitArea) {
  // Paper: 169 nm^2 (BGC) and 175 nm^2 (AHC). Our geometry model lands in
  // the same bracket (within ~1.5x); the ranking is exact.
  const double bgc = get(codes::code_type::balanced_gray, 10).bit_area_nm2;
  EXPECT_LT(bgc, 250.0);
  EXPECT_GT(bgc, 120.0);
}

TEST_F(PaperClaims, BestDesignIsBalancedGray10FollowedByArrangedHot) {
  // "the smallest bit area is 169 nm^2 for the balanced Gray code,
  // followed by the arranged hot code".
  const design_evaluation& best = best_bit_area(*results_);
  EXPECT_EQ(best.point.type, codes::code_type::balanced_gray);
  EXPECT_EQ(best.point.length, 10u);

  double best_hot_family = 1e18;
  codes::code_type best_hot_type = codes::code_type::hot;
  for (const sweep_engine_entry& entry : *results_) {
    const design_evaluation& e = entry.evaluation;
    if ((e.point.type == codes::code_type::hot ||
         e.point.type == codes::code_type::arranged_hot) &&
        e.bit_area_nm2 < best_hot_family) {
      best_hot_family = e.bit_area_nm2;
      best_hot_type = e.point.type;
    }
  }
  EXPECT_EQ(best_hot_type, codes::code_type::arranged_hot);
}

TEST_F(PaperClaims, GrayOrderingHoldsAtEveryLength) {
  for (const std::size_t m : {std::size_t{6}, std::size_t{8}, std::size_t{10}}) {
    EXPECT_GE(get(codes::code_type::gray, m).crosspoint_yield,
              get(codes::code_type::tree, m).crosspoint_yield);
    EXPECT_GE(get(codes::code_type::balanced_gray, m).crosspoint_yield,
              get(codes::code_type::gray, m).crosspoint_yield - 0.01);
  }
}

}  // namespace
}  // namespace nwdec::core
