#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nwdec {
namespace {

TEST(ThreadBudgetTest, NeverBelowOne) {
  EXPECT_GE(thread_budget(), 1u);
  EXPECT_EQ(runner_count(5, 0), std::min<std::size_t>(thread_budget(), 5));
  EXPECT_EQ(runner_count(5, 3), 3u);
  EXPECT_EQ(runner_count(2, 8), 2u);
  EXPECT_EQ(runner_count(0, 4), 0u);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnceAtEveryWidth) {
  constexpr std::size_t count = 37;
  for (const std::size_t width : {0UL, 1UL, 2UL, 8UL, count + 5}) {
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::atomic<int>> runner_used(runner_count(count, width));
    parallel_for(count, width, [&](std::size_t runner, std::size_t index) {
      ASSERT_LT(runner, runner_used.size());
      runner_used[runner].fetch_add(1);
      hits[index].fetch_add(1);
    });
    for (std::size_t index = 0; index < count; ++index) {
      EXPECT_EQ(hits[index].load(), 1) << "width " << width << " index "
                                       << index;
    }
  }
}

TEST(ParallelForTest, ZeroCountRunsNothing) {
  bool ran = false;
  parallel_for(0, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, RunnerStateIsPrivateToItsRunner) {
  // Per-runner state indexed by the runner number is never touched by two
  // runners at once: a plain (non-atomic) counter per runner adds up.
  constexpr std::size_t count = 200;
  const std::size_t runners = runner_count(count, 4);
  std::vector<std::size_t> per_runner(runners, 0);
  parallel_for(count, 4, [&](std::size_t runner, std::size_t) {
    ++per_runner[runner];
  });
  std::size_t total = 0;
  for (const std::size_t n : per_runner) total += n;
  EXPECT_EQ(total, count);
}

TEST(ParallelForTest, RethrowsTheFirstExceptionAfterEveryRunnerStops) {
  std::atomic<int> active{0};
  try {
    parallel_for(4, 4, [&](std::size_t, std::size_t index) {
      active.fetch_add(1);
      if (index == 0) {
        active.fetch_sub(1);
        throw std::runtime_error("index 0 failed");
      }
      // The other runners are still busy when index 0 throws.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      active.fetch_sub(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& failure) {
    EXPECT_STREQ(failure.what(), "index 0 failed");
  }
  EXPECT_EQ(active.load(), 0) << "rethrown before every runner stopped";
}

TEST(ParallelForTest, NoIndexStartsAfterAFailure) {
  std::vector<int> ran(6, 0);
  EXPECT_THROW(parallel_for(6, 1,
                            [&](std::size_t, std::size_t index) {
                              ran[index] = 1;
                              if (index == 2) throw std::runtime_error("2");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 0, 0}));
}

TEST(ParallelForTest, OnlyOneOfSeveralFailuresIsRethrown) {
  EXPECT_THROW(parallel_for(16, 4,
                            [](std::size_t, std::size_t index) {
                              throw std::out_of_range(std::to_string(index));
                            }),
               std::out_of_range);
}

TEST(ParallelForTest, NestedCallFromARunnerCompletes) {
  std::vector<std::atomic<int>> hits(6 * 5);
  parallel_for(6, 3, [&](std::size_t, std::size_t outer) {
    parallel_for(5, 2, [&](std::size_t, std::size_t inner) {
      hits[outer * 5 + inner].fetch_add(1);
    });
  });
  for (const std::atomic<int>& hit : hits) EXPECT_EQ(hit.load(), 1);
}

}  // namespace
}  // namespace nwdec
