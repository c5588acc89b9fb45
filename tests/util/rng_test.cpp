#include "util/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cpu.h"
#include "util/error.h"
#include "util/stats.h"

namespace nwdec {
namespace {

TEST(RngTest, SameSeedSameStream) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRangeRespected) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_THROW(r.uniform(1.0, 1.0), invalid_argument_error);
}

TEST(RngTest, IndexStaysInRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.index(17), 17u);
  }
  EXPECT_THROW(r.index(0), invalid_argument_error);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  rng r(99);
  running_stats s;
  for (int i = 0; i < 20000; ++i) s.add(r.gaussian(2.0, 0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(RngTest, GaussianZeroSigmaIsDegenerate) {
  rng r(1);
  EXPECT_DOUBLE_EQ(r.gaussian(1.25, 0.0), 1.25);
  EXPECT_THROW(r.gaussian(0.0, -1.0), invalid_argument_error);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  rng r(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_THROW(r.bernoulli(1.5), invalid_argument_error);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  rng parent1(11);
  rng parent2(11);
  rng child1 = parent1.fork();
  rng child2 = parent2.fork();
  // Forking is deterministic given the parent state...
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
  }
  // ...and the child stream differs from the parent stream.
  rng parent3(11);
  rng child3 = parent3.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent3.uniform() == child3.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, CounterForkIsPureInKeyAndCounter) {
  // from_counter must not read or advance any generator state: the same
  // (key, counter) pair gives the same stream no matter when or where it
  // is asked for -- the contract the multithreaded Monte Carlo relies on.
  rng a = rng::from_counter(123, 5);
  rng parent(123);
  parent.uniform();  // perturb the parent; must not matter
  rng b = parent.seed() == 123 ? rng::from_counter(parent.seed(), 5) : rng(0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, CounterForkStreamsAreDecorrelated) {
  // Adjacent counters (the common sharding pattern) must give unrelated
  // streams.
  rng a = rng::from_counter(99, 0);
  rng b = rng::from_counter(99, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkStreamIsKeyedByConstructionSeed) {
  const rng parent(77);
  rng child = parent.fork_stream(3);
  rng expected = rng::from_counter(77, 3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child.uniform(), expected.uniform());
  }
}

TEST(RngTest, StandardNormalFillHasCorrectMoments) {
  rng r(2024);
  std::vector<double> buffer(20000);
  r.standard_normal_fill(buffer.data(), buffer.size());
  running_stats s;
  for (const double x : buffer) s.add(x);
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngTest, StandardNormalFillIsDeterministic) {
  rng a(5);
  rng b(5);
  std::vector<double> fa(64), fb(64);
  a.standard_normal_fill(fa.data(), fa.size());
  b.standard_normal_fill(fb.data(), fb.size());
  EXPECT_EQ(fa, fb);
}

TEST(RngTest, CounterSeedMatchesFromCounter) {
  for (const std::uint64_t key : {0ULL, 7ULL, 0xdeadbeefULL}) {
    for (const std::uint64_t counter : {0ULL, 1ULL, 12345ULL}) {
      EXPECT_EQ(rng::counter_seed(key, counter),
                rng::from_counter(key, counter).seed());
    }
  }
}

// --- block_rng: the batched kernel's engine must replicate the scalar
// path's streams draw for draw (the deviate contract in util/rng.h).

TEST(BlockRngTest, RawOutputMatchesStdMt19937_64) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
    std::mt19937_64 reference(seed);
    block_rng mine(seed);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(reference(), mine.next()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(BlockRngTest, LaneSeedingMatchesIndividualSeeding) {
  // The lane-parallel initialization must produce the exact streams the
  // one-at-a-time path does, including a partial last lane group: with no
  // deviates, the tail draws are the streams' first canonicals.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 13; ++s) {
    seeds.push_back(rng::counter_seed(31, 4 + s));
  }
  const std::size_t tail = 1000;
  std::vector<double> uniforms(seeds.size() * tail);
  std::vector<double> no_deviates(1);
  lane_rng_scratch scratch;
  standard_normal_block(31, 4, seeds.size(), 0, no_deviates.data(),
                        seeds.size(), tail, uniforms.data(), scratch);
  for (std::size_t e = 0; e < seeds.size(); ++e) {
    block_rng single(seeds[e]);
    for (std::size_t i = 0; i < tail; ++i) {
      ASSERT_EQ(single.canonical(), uniforms[e * tail + i])
          << "engine " << e << " draw " << i;
    }
  }
}

TEST(BlockRngTest, BernoulliMatchesRngDrawForDraw) {
  // Same engine state, same decisions, same number of draws -- including
  // p == 0 and p == 1, which still consume one draw each.
  for (const double p : {0.0, 0.05, 0.5, 1.0}) {
    rng reference(321);
    block_rng mine(321);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(reference.bernoulli(p), mine.bernoulli(p)) << "p " << p;
    }
    // Post-sequence draws agree, so the draw counts matched exactly.
    EXPECT_EQ(reference.engine()(), mine.next());
  }
}

TEST(BlockRngTest, StandardNormalFillMatchesRngBitForBit) {
  // Counts cover pair-aligned fills, odd tails (the discarded second
  // deviate), sub-pair fills, and a count spanning a twist-round boundary.
  for (const std::size_t count : {1UL, 2UL, 7UL, 160UL, 161UL, 400UL}) {
    for (const std::uint64_t seed : {9ULL, 2009ULL}) {
      rng reference(seed);
      block_rng mine(seed);
      std::vector<double> expected(count), got(count);
      reference.standard_normal_fill(expected.data(), count);
      mine.standard_normal_fill(got.data(), count);
      ASSERT_EQ(expected, got) << "count " << count << " seed " << seed;
      // The engines sit at the same stream position afterwards, so tail
      // draws (defects, discards) stay bit-compatible too.
      EXPECT_EQ(reference.engine()(), mine.next());
    }
  }
}

TEST(BlockRngTest, StridedFillScattersTheSameDeviates) {
  const std::size_t count = 97, stride = 8;
  block_rng contiguous(55);
  block_rng strided(55);
  std::vector<double> flat(count);
  std::vector<double> lanes(count * stride, -1.0);
  contiguous.standard_normal_fill(flat.data(), count);
  strided.standard_normal_fill(lanes.data(), count, stride);
  for (std::size_t k = 0; k < count; ++k) {
    ASSERT_EQ(flat[k], lanes[k * stride]) << "deviate " << k;
  }
  EXPECT_EQ(contiguous.next(), strided.next());
}

TEST(BlockRngTest, CanonicalFillMatchesRepeatedCanonical) {
  // The bulk conversion must reproduce canonical() value for value and
  // position for position -- counts chosen to cover sub-chunk fills, exact
  // chunk multiples, and fills spanning a twist-round boundary (the 312-word
  // state array refills mid-fill at 313 and 1000).
  for (const std::size_t count : {1UL, 3UL, 64UL, 65UL, 312UL, 313UL,
                                  1000UL}) {
    for (const std::uint64_t seed : {13ULL, 2009ULL}) {
      block_rng reference(seed);
      block_rng bulk(seed);
      std::vector<double> expected(count), got(count);
      for (std::size_t k = 0; k < count; ++k) {
        expected[k] = reference.canonical();
      }
      bulk.canonical_fill(got.data(), count);
      ASSERT_EQ(expected, got) << "count " << count << " seed " << seed;
      EXPECT_EQ(reference.next(), bulk.next())
          << "count " << count << " seed " << seed;
    }
  }
}

TEST(BlockRngTest, CanonicalFillStridedScattersTheSameUniforms) {
  const std::size_t count = 77, stride = 5;
  block_rng contiguous(91);
  block_rng strided(91);
  std::vector<double> flat(count);
  std::vector<double> lanes(count * stride, -1.0);
  contiguous.canonical_fill(flat.data(), count);
  strided.canonical_fill(lanes.data(), count, stride);
  for (std::size_t k = 0; k < count; ++k) {
    ASSERT_EQ(flat[k], lanes[k * stride]) << "uniform " << k;
  }
  EXPECT_EQ(contiguous.next(), strided.next());
}

TEST(BlockRngTest, BulkFillsAreBitIdenticalAcrossSimdPaths) {
  // The dispatch contract: whichever kernel table converts the words, the
  // uniforms and deviates are the same bits. scalar is the oracle.
  struct path_guard {
    cpu::simd_path saved = cpu::active_path();
    ~path_guard() { cpu::force_path(saved); }
  } restore;
  cpu::force_path(cpu::simd_path::scalar);
  const std::size_t count = 500;
  block_rng u_oracle(42), n_oracle(42);
  std::vector<double> uniforms(count), normals(count);
  u_oracle.canonical_fill(uniforms.data(), count);
  n_oracle.standard_normal_fill(normals.data(), count);
  // The word each stream sits on after the fill: equal next() output means
  // equal consumption, so the paths agree on position, not just values.
  const std::uint64_t u_next = u_oracle.next();
  const std::uint64_t n_next = n_oracle.next();
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    block_rng u(42), n(42);
    std::vector<double> got_u(count), got_n(count);
    u.canonical_fill(got_u.data(), count);
    n.standard_normal_fill(got_n.data(), count);
    ASSERT_EQ(uniforms, got_u) << cpu::simd_path_name(path);
    ASSERT_EQ(normals, got_n) << cpu::simd_path_name(path);
    EXPECT_EQ(u_next, u.next()) << cpu::simd_path_name(path);
    EXPECT_EQ(n_next, n.next()) << cpu::simd_path_name(path);
  }
}

TEST(BlockRngTest, StandardNormalBlockMatchesPerTrialStreams) {
  const std::uint64_t key = 77;
  const std::size_t trials = 11, count = 23, lane_stride = 16, tail = 9;
  std::vector<double> lanes(count * lane_stride, 0.0);
  std::vector<double> tails(trials * tail);
  lane_rng_scratch scratch;
  standard_normal_block(key, 5, trials, count, lanes.data(), lane_stride,
                        tail, tails.data(), scratch);
  for (std::size_t t = 0; t < trials; ++t) {
    rng reference = rng::from_counter(key, 5 + t);
    std::vector<double> expected(count);
    reference.standard_normal_fill(expected.data(), count);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(expected[k], lanes[k * lane_stride + t])
          << "trial " << t << " deviate " << k;
    }
    // The tail uniforms continue trial t's stream exactly where rng would.
    for (std::size_t k = 0; k < tail; ++k) {
      ASSERT_EQ(reference.uniform(), tails[t * tail + k])
          << "trial " << t << " tail " << k;
    }
  }
}

// --- the lane-parallel streams (standard_normal_block) against
// std::mt19937_64 through rng, on every dispatch path.

// Checks one block: every lane's deviates against rng::standard_normal_fill
// and its tail uniforms against the draws rng makes next.
void expect_block_matches_rng(std::uint64_t key, std::uint64_t first,
                              std::size_t trials, std::size_t count,
                              std::size_t tail, const std::string& what) {
  const std::size_t lane_stride = trials + 3;
  std::vector<double> lanes(count * lane_stride, -7.0);
  std::vector<double> tails(trials * tail, -7.0);
  lane_rng_scratch scratch;
  standard_normal_block(key, first, trials, count, lanes.data(), lane_stride,
                        tail, tails.data(), scratch);
  for (std::size_t t = 0; t < trials; ++t) {
    rng reference = rng::from_counter(key, first + t);
    std::vector<double> expected(count);
    reference.standard_normal_fill(expected.data(), count);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(expected[k], lanes[k * lane_stride + t])
          << what << " trial " << t << " deviate " << k;
    }
    for (std::size_t k = 0; k < tail; ++k) {
      ASSERT_EQ(reference.uniform(), tails[t * tail + k])
          << what << " trial " << t << " tail " << k;
    }
  }
  // Padding lanes past `trials` are never written.
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t t = trials; t < lane_stride; ++t) {
      ASSERT_EQ(lanes[k * lane_stride + t], -7.0) << what;
    }
  }
}

struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

TEST(LaneStreamTest, EveryLaneCountMatchesRngOnEveryPath) {
  path_guard restore;
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    for (std::size_t trials = 1; trials <= 64; ++trials) {
      expect_block_matches_rng(0x5eedULL + trials, 3 * trials, trials, 31, 5,
                               std::string(cpu::simd_path_name(path)) +
                                   " trials " + std::to_string(trials));
    }
  }
}

TEST(LaneStreamTest, FillsAcrossTheTwistRoundMatchRng) {
  // 200 deviates consume ~255 words, so lanes finish on both sides of the
  // 312-word round; 400 and 1001 deviates cross one and three rounds; the
  // long tails cross a round boundary on their own, at odd positions.
  path_guard restore;
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    const std::string name = cpu::simd_path_name(path);
    expect_block_matches_rng(2009, 0, 32, 200, 41, name + " 200");
    expect_block_matches_rng(2010, 7, 19, 400, 3, name + " 400");
    expect_block_matches_rng(2011, 100, 9, 1001, 0, name + " 1001");
    expect_block_matches_rng(2012, 1, 8, 1, 700, name + " tail 700");
  }
}

TEST(LaneStreamTest, ScratchReuseAcrossBlockShapes) {
  // One scratch serving blocks of different widths and lengths, as a
  // worker's trial_scratch does, leaks no state between blocks.
  lane_rng_scratch scratch;
  for (const std::size_t trials : {40UL, 3UL, 17UL}) {
    const std::size_t count = 50 + trials;
    std::vector<double> lanes(count * trials);
    std::vector<double> tails(trials * 2);
    standard_normal_block(9, trials, trials, count, lanes.data(), trials, 2,
                          tails.data(), scratch);
    for (std::size_t t = 0; t < trials; ++t) {
      rng reference = rng::from_counter(9, trials + t);
      std::vector<double> expected(count);
      reference.standard_normal_fill(expected.data(), count);
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_EQ(expected[k], lanes[k * trials + t]) << trials;
      }
      ASSERT_EQ(reference.uniform(), tails[2 * t]) << trials;
    }
  }
}

}  // namespace
}  // namespace nwdec
