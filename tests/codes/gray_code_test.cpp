#include "codes/gray_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "codes/metrics.h"
#include "codes/tree_code.h"
#include "gray_oracle.h"
#include "util/rng.h"

namespace nwdec::codes {
namespace {

TEST(GrayCodeTest, BinaryReflectedSequence) {
  const std::vector<code_word> words = gray_code_words(2, 3);
  ASSERT_EQ(words.size(), 8u);
  const char* expected[] = {"000", "001", "011", "010",
                            "110", "111", "101", "100"};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(words[i].to_string(), expected[i]) << "index " << i;
  }
}

TEST(GrayCodeTest, TernaryAdjacentWordsDifferInOneDigit) {
  const std::vector<code_word> words = gray_code_words(3, 3);
  ASSERT_EQ(words.size(), 27u);
  EXPECT_TRUE(is_gray_sequence(words, 1, /*cyclic=*/false));
}

TEST(GrayCodeTest, EvenRadixIsCyclic) {
  // For even radix the reflected construction closes the cycle.
  EXPECT_TRUE(is_gray_sequence(gray_code_words(2, 4), 1, /*cyclic=*/true));
  EXPECT_TRUE(is_gray_sequence(gray_code_words(4, 2), 1, /*cyclic=*/true));
}

TEST(GrayCodeTest, AdjacentDigitChangesAreUnitSteps) {
  // The reflected n-ary construction changes the moving digit by +-1; this
  // matters for fabrication because unit steps use adjacent dose values.
  const std::vector<code_word> words = gray_code_words(3, 4);
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    int delta_sum = 0;
    for (std::size_t j = 0; j < words[i].length(); ++j) {
      delta_sum += std::abs(static_cast<int>(words[i].at(j)) -
                            static_cast<int>(words[i + 1].at(j)));
    }
    EXPECT_EQ(delta_sum, 1) << "step " << i;
  }
}

class GraySpaceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(GraySpaceTest, IsAPermutationOfTheTreeSpace) {
  const auto [radix, length] = GetParam();
  std::vector<code_word> gray = gray_code_words(radix, length);
  std::vector<code_word> tree = tree_code_words(radix, length);
  EXPECT_TRUE(is_gray_sequence(gray, 1, /*cyclic=*/false));
  std::sort(gray.begin(), gray.end());
  std::sort(tree.begin(), tree.end());
  EXPECT_EQ(gray, tree);
}

INSTANTIATE_TEST_SUITE_P(
    AllRadixLength, GraySpaceTest,
    ::testing::Combine(::testing::Values(2u, 3u, 4u),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5})),
    [](const ::testing::TestParamInfo<GraySpaceTest::ParamType>& info) {
      return "radix" + std::to_string(std::get<0>(info.param)) + "_len" +
             std::to_string(std::get<1>(info.param));
    });

TEST(GrayCodeTest, EncodeDecodeRoundTrip) {
  for (std::uint64_t i = 0; i < 4096; ++i) {
    EXPECT_EQ(gray_decode(gray_encode(i)), i);
  }
  // Successive encodings differ in exactly one bit.
  for (std::uint64_t i = 0; i + 1 < 4096; ++i) {
    const std::uint64_t diff = gray_encode(i) ^ gray_encode(i + 1);
    EXPECT_EQ(diff & (diff - 1), 0u) << "index " << i;
    EXPECT_NE(diff, 0u) << "index " << i;
  }
  // Full-width values survive the shift-xor fold.
  EXPECT_EQ(gray_decode(gray_encode(~std::uint64_t{0})), ~std::uint64_t{0});
}

// Identity of the shift-xor encode and log-shift decode against the loop
// oracle: every 24-bit value, plus 2^20 seeded full-width values. The
// exhaustive 32-bit sweep is GrayCodeLongTest (label `long`, built with
// -DNWDEC_LONG_TESTS=ON).
TEST(GrayCodeTest, EncodeDecodeMatchLoopOracleOn24BitsAndSeeded64Bit) {
  std::uint64_t mismatches = 0;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << 24); ++v) {
    mismatches += gray_encode(v) != testkit::loop_gray_encode(v);
    mismatches += gray_decode(v) != testkit::loop_gray_decode(v);
    mismatches += gray_decode(gray_encode(v)) != v;
  }
  EXPECT_EQ(mismatches, 0u) << "24-bit sweep";
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t k = 0; k < (std::size_t{1} << 20); ++k) {
    const std::uint64_t v = rng::counter_seed(state, k);
    mismatches += gray_encode(v) != testkit::loop_gray_encode(v);
    mismatches += gray_decode(v) != testkit::loop_gray_decode(v);
    mismatches += gray_decode(gray_encode(v)) != v;
  }
  EXPECT_EQ(mismatches, 0u) << "seeded 64-bit values";
}

TEST(GrayCodeTest, EncodeMatchesReflectedWordSequence) {
  // gray_encode(i) read MSB-first is word i of the radix-2 reflected
  // construction -- the identity the binary fast path in gray_code_words
  // rests on.
  const std::size_t length = 6;
  const std::vector<code_word> words = gray_code_words(2, length);
  ASSERT_EQ(words.size(), std::size_t{1} << length);
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t value = 0;
    for (std::size_t j = 0; j < length; ++j) {
      value = (value << 1) | words[i].at(j);
    }
    EXPECT_EQ(value, gray_encode(i)) << "index " << i;
    EXPECT_EQ(gray_decode(value), i) << "index " << i;
  }
}

TEST(GrayCodeTest, IsGraySequenceDetectsViolations) {
  std::vector<code_word> words = {parse_word(2, "00"), parse_word(2, "01"),
                                  parse_word(2, "10")};
  EXPECT_FALSE(is_gray_sequence(words, 1, /*cyclic=*/false));
  words[2] = parse_word(2, "11");
  EXPECT_TRUE(is_gray_sequence(words, 1, /*cyclic=*/false));
  EXPECT_FALSE(is_gray_sequence(words, 1, /*cyclic=*/true));
}

}  // namespace
}  // namespace nwdec::codes
