// The exhaustive 32-bit identity of codes::gray_encode / gray_decode
// against the loop oracle. Too long for tier-1 (~4.3e9 values): built and
// registered only with -DNWDEC_LONG_TESTS=ON, under the ctest label
// `long`:
//   cmake -B build -S . -DNWDEC_LONG_TESTS=ON && cmake --build build -j
//   ctest --test-dir build -L long
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "codes/gray_code.h"
#include "gray_oracle.h"
#include "util/parallel.h"

namespace nwdec::codes {
namespace {

TEST(GrayCodeLongTest, EveryThirtyTwoBitValueMatchesTheLoopOracle) {
  constexpr std::uint64_t kShards = 1024;
  constexpr std::uint64_t kPerShard = (std::uint64_t{1} << 32) / kShards;
  std::atomic<std::uint64_t> mismatches{0};
  parallel_for(kShards, thread_budget(),
               [&](std::size_t, std::size_t shard) {
                 std::uint64_t local = 0;
                 const std::uint64_t begin = shard * kPerShard;
                 for (std::uint64_t v = begin; v < begin + kPerShard; ++v) {
                   local += gray_encode(v) != testkit::loop_gray_encode(v);
                   local += gray_decode(v) != testkit::loop_gray_decode(v);
                   local += gray_decode(gray_encode(v)) != v;
                 }
                 mismatches += local;
               });
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace nwdec::codes
