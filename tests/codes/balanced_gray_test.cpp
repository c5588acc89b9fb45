#include "codes/balanced_gray.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>

#include "codes/arrangement.h"
#include "codes/factory.h"
#include "codes/gray_code.h"
#include "codes/tree_code.h"
#include "util/error.h"

namespace nwdec::codes {
namespace {

TEST(BalancedTargetsTest, BinaryTargetsAreEvenAndSumToSpace) {
  for (std::size_t m = 2; m <= 6; ++m) {
    const std::vector<std::size_t> targets = balanced_transition_targets(2, m);
    ASSERT_EQ(targets.size(), m);
    const std::size_t total =
        std::accumulate(targets.begin(), targets.end(), std::size_t{0});
    EXPECT_EQ(total, std::size_t{1} << m) << "m=" << m;
    for (const std::size_t t : targets) {
      EXPECT_EQ(t % 2, 0u) << "m=" << m;
    }
    const auto [lo, hi] = std::minmax_element(targets.begin(), targets.end());
    EXPECT_LE(*hi - *lo, 2u) << "m=" << m;
  }
}

TEST(BalancedTargetsTest, KnownSmallCases) {
  // 2^4 = 16 transitions over 4 bits balance perfectly to 4 each.
  EXPECT_EQ(balanced_transition_targets(2, 4),
            (std::vector<std::size_t>{4, 4, 4, 4}));
  // 2^5 = 32 over 5 bits: four bits toggle 6 times, one toggles 8.
  const std::vector<std::size_t> m5 = balanced_transition_targets(2, 5);
  EXPECT_EQ(std::count(m5.begin(), m5.end(), 8u), 1);
  EXPECT_EQ(std::count(m5.begin(), m5.end(), 6u), 4);
}

class BalancedGrayTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BalancedGrayTest, BinaryCodeIsBalancedCyclicGray) {
  const std::size_t m = GetParam();
  const std::vector<code_word> words = balanced_gray_code_words(2, m);
  ASSERT_EQ(words.size(), std::size_t{1} << m);

  // Cyclic Gray property.
  EXPECT_TRUE(is_gray_sequence(words, 1, /*cyclic=*/true));

  // Covers the whole space.
  std::vector<code_word> sorted = words;
  std::sort(sorted.begin(), sorted.end());
  std::vector<code_word> tree = tree_code_words(2, m);
  EXPECT_EQ(sorted, tree);

  // Per-digit transition spread <= 2 (Bhat-Savage balance).
  const std::vector<std::size_t> counts =
      per_digit_transitions(words, /*cyclic=*/true);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 2u) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(BitWidths, BalancedGrayTest,
                         ::testing::Values(std::size_t{2}, std::size_t{3},
                                           std::size_t{4}, std::size_t{5},
                                           std::size_t{6}),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "m" + std::to_string(i.param);
                         });

TEST(BalancedGrayNaryTest, TernaryIsGrayAndMuchBetterBalancedThanStandard) {
  const std::vector<code_word> balanced = balanced_gray_code_words(3, 3);
  ASSERT_EQ(balanced.size(), 27u);
  EXPECT_TRUE(is_gray_sequence(balanced, 1, /*cyclic=*/false));

  const std::vector<std::size_t> counts =
      per_digit_transitions(balanced, /*cyclic=*/true);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());

  const std::vector<std::size_t> standard_counts =
      per_digit_transitions(gray_code_words(3, 3), /*cyclic=*/true);
  const auto [slo, shi] =
      std::minmax_element(standard_counts.begin(), standard_counts.end());

  EXPECT_LT(*hi - *lo, *shi - *slo);
  EXPECT_LE(*hi - *lo, 2u);
}

TEST(ConstrainedPrefixTest, PaperExampleShapeIsFeasible) {
  // Sec. 2.3's BGC statement: every digit changes at most twice. For a
  // ternary 4-digit prefix like 0000 => 0001 => 0002 => 0012 (4 words)
  // such sequences exist comfortably.
  const auto prefix = constrained_gray_prefix(3, 4, 4, 2);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->size(), 4u);
  EXPECT_TRUE(is_gray_sequence(*prefix, 1, /*cyclic=*/false));
  const std::vector<std::size_t> counts =
      per_digit_transitions(*prefix, /*cyclic=*/false);
  for (const std::size_t c : counts) EXPECT_LE(c, 2u);
}

TEST(ConstrainedPrefixTest, BudgetBoundIsTight) {
  // count - 1 steps need count - 1 changes; with max_changes * m below
  // that no sequence exists.
  EXPECT_FALSE(constrained_gray_prefix(2, 3, 8, 1).has_value());  // 7 > 3
  const auto feasible = constrained_gray_prefix(2, 3, 7, 3);
  ASSERT_TRUE(feasible.has_value());
  const std::vector<std::size_t> counts =
      per_digit_transitions(*feasible, false);
  for (const std::size_t c : counts) EXPECT_LE(c, 3u);
}

TEST(ConstrainedPrefixTest, ParityObstructionIsDetected) {
  // 7 binary words with every bit changing at most twice would use each
  // bit an even number of times over 6 steps, XOR-ing back to the start
  // word -- a repeat. The search must prove this infeasible, not just
  // satisfy the counting bound (6 <= 2 * 3).
  EXPECT_FALSE(constrained_gray_prefix(2, 3, 7, 2).has_value());
}

TEST(ConstrainedPrefixTest, WordsAreDistinct) {
  const auto prefix = constrained_gray_prefix(2, 4, 12, 3);
  ASSERT_TRUE(prefix.has_value());
  std::vector<code_word> sorted = *prefix;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ConstrainedPrefixTest, InvalidRequestsThrow) {
  EXPECT_THROW(constrained_gray_prefix(2, 3, 9, 8), invalid_argument_error);
  EXPECT_THROW(constrained_gray_prefix(2, 3, 0, 2), invalid_argument_error);
}

TEST(BalancedGrayTest, UnbalanceableSpacesAreRefusedAtOnce) {
  // Binary BGC at full lengths 14 and 16 (7 and 8 free digits) cannot be
  // balanced; a doomed search would hold the engine for ~20 s, so the
  // guard must answer without searching.
  for (const std::size_t length : {14u, 16u}) {
    const std::size_t words = std::size_t{1} << (length / 2);
    const auto start = std::chrono::steady_clock::now();
    try {
      make_code(code_type::balanced_gray, 2, length);
      ADD_FAILURE() << "length " << length << " built";
    } catch (const invalid_argument_error& failure) {
      EXPECT_EQ(std::string(failure.what()),
                "balanced Gray search could not balance this code space (" +
                    std::to_string(words) +
                    " words); use the plain Gray code for spaces of this "
                    "size");
    }
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              1.0)
        << "length " << length;
  }
}

TEST(BalancedGrayTest, BinaryCodesUpToLength12AreUnchanged) {
  // FNV-1a over every digit of every word (0xff after each word), pinned
  // from the unguarded search: the guard leaves the codes the experiments
  // use word for word unchanged.
  struct pinned {
    std::size_t length;
    std::size_t words;
    std::uint64_t fingerprint;
  };
  const pinned expected[] = {
      {2, 2, 0xa9ed16cea316e151ULL},   {4, 4, 0xffb8277d6cec7e13ULL},
      {6, 8, 0xb4d35ba8a5bb9d3bULL},   {8, 16, 0x5ce746a76a3c0763ULL},
      {10, 32, 0x5dfaaee5091166e3ULL}, {12, 64, 0x7b01875345f2faa3ULL}};
  for (const pinned& pin : expected) {
    const code built = make_code(code_type::balanced_gray, 2, pin.length);
    ASSERT_EQ(built.words.size(), pin.words) << "length " << pin.length;
    std::uint64_t hash = 1469598103934665603ULL;
    for (const code_word& word : built.words) {
      for (const digit d : word.digits()) {
        hash ^= d;
        hash *= 1099511628211ULL;
      }
      hash ^= 0xff;
      hash *= 1099511628211ULL;
    }
    EXPECT_EQ(hash, pin.fingerprint) << "length " << pin.length;
  }
}

TEST(BalancedGrayTest, StandardGrayIsUnbalancedForComparison) {
  // Sanity: the reflected Gray code concentrates transitions in the last
  // digit (2^(m-1) of them), so BGC is a real improvement, not a no-op.
  const std::vector<std::size_t> counts =
      per_digit_transitions(gray_code_words(2, 4), /*cyclic=*/true);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GE(*hi - *lo, 6u);
}

}  // namespace
}  // namespace nwdec::codes
