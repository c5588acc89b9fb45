// block_rng and standard_normal_block: mt19937_64 streams drawn under the
// deviate contract util/rng.h pins, one stream at a time (block_rng) or a
// trial block's streams lane-parallel (standard_normal_block). Both split
// the twist at its wrap points so the bodies are branch-free, and twist
// lazily in chunks: a per-trial stream that consumes ~200 draws never pays
// for the full 312-word round the eager std engine generates.
#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/cpu.h"
#include "util/rng_kernels.h"

namespace nwdec {

namespace detail {

const rng_kernel_table* rng_kernel_table_for(cpu::simd_path path) {
  switch (path) {
    case cpu::simd_path::scalar:
      return scalar_rng_kernel_table();
    case cpu::simd_path::sse2:
      return sse2_rng_kernel_table();
    case cpu::simd_path::avx2:
      return avx2_rng_kernel_table();
    case cpu::simd_path::avx512:
      return avx512_rng_kernel_table();
  }
  return scalar_rng_kernel_table();
}

const rng_kernel_table& active_rng_kernel_table() {
  const rng_kernel_table* table = rng_kernel_table_for(cpu::active_path());
  // cpu::path_compiled gates on exactly these tables, so a compiled path
  // always resolves; null here means the build gating diverged.
  NWDEC_ENSURES(table != nullptr,
                "active SIMD path has no compiled rng-kernel table");
  return *table;
}

}  // namespace detail

namespace {

constexpr std::size_t mt_n = block_rng::state_size;  // 312
constexpr std::size_t mt_m = 156;
constexpr std::uint64_t mt_matrix_a = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t mt_upper = 0xffffffff80000000ULL;
constexpr std::uint64_t mt_lower = 0x000000007fffffffULL;

// Words twisted per lazy chunk: large enough to amortize the call, small
// enough that a ~200-draw trial skips a third of the round.
constexpr std::size_t twist_chunk = 64;

}  // namespace

namespace {

inline std::uint64_t seed_step(std::uint64_t previous, std::uint64_t i) {
  return 6364136223846793005ULL * (previous ^ (previous >> 62)) + i;
}

}  // namespace

void block_rng::seed(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < mt_n; ++i) {
    state_[i] = seed_step(state_[i - 1], static_cast<std::uint64_t>(i));
  }
  index_ = mt_n;
  twisted_ = mt_n;
}

void block_rng::twist_to(std::size_t limit) {
  // ((y & 1) ? matrix_a : 0) as arithmetic so the loop bodies stay
  // branchless: -(y & 1) is all-ones exactly when the low bit is set.
  const auto twisted_word = [](std::uint64_t y, std::uint64_t far) {
    return far ^ (y >> 1) ^ (-(y & 1ULL) & mt_matrix_a);
  };
  std::size_t i = twisted_;
  const std::size_t first_stop = std::min(limit, mt_n - mt_m);
  for (; i < first_stop; ++i) {
    const std::uint64_t y = (state_[i] & mt_upper) | (state_[i + 1] & mt_lower);
    state_[i] = twisted_word(y, state_[i + mt_m]);
  }
  const std::size_t second_stop = std::min(limit, mt_n - 1);
  for (; i < second_stop; ++i) {
    const std::uint64_t y = (state_[i] & mt_upper) | (state_[i + 1] & mt_lower);
    state_[i] = twisted_word(y, state_[i + mt_m - mt_n]);
  }
  if (i < limit) {
    const std::uint64_t y = (state_[mt_n - 1] & mt_upper) |
                            (state_[0] & mt_lower);
    state_[mt_n - 1] = twisted_word(y, state_[mt_m - 1]);
    ++i;
  }
  twisted_ = i;
}

void block_rng::replenish() {
  if (index_ >= mt_n) {
    index_ = 0;
    twisted_ = 0;
  }
  twist_to(std::min(mt_n, twisted_ + twist_chunk));
}

void block_rng::standard_normal_fill(double* out, std::size_t count,
                                     std::size_t stride) {
  // The pinned Marsaglia polar rule (see the class comment): draw x then y,
  // reject until 0 < r2 <= 1, emit y*mult then x*mult. Expressions mirror
  // the std path exactly -- same operations in the same order -- so every
  // emitted double, and the engine position afterwards, is bit-identical
  // to rng::standard_normal_fill.
  std::size_t k = 0;
  while (k < count) {
    const double x = 2.0 * canonical() - 1.0;
    const double y = 2.0 * canonical() - 1.0;
    const double r2 = x * x + y * y;
    if (r2 > 1.0 || r2 == 0.0) continue;
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    out[k * stride] = y * mult;
    ++k;
    if (k < count) {
      out[k * stride] = x * mult;
      ++k;
    }
  }
}

namespace {

// Words twisted per lane-parallel chunk: even (polar pairs never straddle
// a chunk) and at most 64, the lane_pairs bound.
constexpr std::size_t lane_chunk = 64;
constexpr std::size_t lane_group = detail::lane_group;

// One lane's progress through its stream during standard_normal_block.
struct lane_cursor {
  std::size_t emitted = 0;  ///< deviates written
  std::size_t tails = 0;    ///< tail uniforms written
};

// Walks one lane of a lane group over the freshly twisted rows
// [begin, end) of the current round: polar pairs until `count` deviates
// are out (compress-store the accepted candidates, whose deviates
// lane_pairs already formed, and consume through the pair that completes
// the fill -- block_rng::standard_normal_fill's accept/reject walk), then
// single tail words until `tail_count` uniforms are out. Returns true when
// the lane needs no further words.
bool walk_lane(const detail::rng_kernel_table& kernels,
               const std::uint64_t* group, std::size_t lane,
               std::size_t begin, std::size_t end, const double* zx,
               const double* zy, std::uint32_t accepted, std::size_t count,
               double* out, std::size_t stride, std::size_t tail_count,
               double* tail_out, lane_cursor& cursor) {
  std::size_t position = begin;
  if (cursor.emitted < count) {
    // Emit whole pairs while two deviates are still wanted, then the last
    // pair's y alone when `count` is odd.
    std::size_t k = cursor.emitted;
    std::size_t last = 0;
    while (accepted != 0 && k + 2 <= count) {
      last = static_cast<std::size_t>(std::countr_zero(accepted));
      accepted &= accepted - 1;
      const std::size_t slot = last * lane_group + lane;
      out[k * stride] = zy[slot];
      out[(k + 1) * stride] = zx[slot];
      k += 2;
    }
    if (accepted != 0 && k < count) {
      last = static_cast<std::size_t>(std::countr_zero(accepted));
      out[k * stride] = zy[last * lane_group + lane];
      ++k;
    }
    cursor.emitted = k;
    if (k < count) return false;
    position = begin + 2 * (last + 1);
  }
  if (cursor.tails < tail_count) {
    std::uint64_t words[lane_chunk];
    const std::size_t take =
        std::min(tail_count - cursor.tails, end - position);
    for (std::size_t w = 0; w < take; ++w) {
      words[w] = group[(position + w) * lane_group + lane];
    }
    kernels.units_from_words(words, take, tail_out + cursor.tails);
    cursor.tails += take;
  }
  return cursor.tails == tail_count;
}

}  // namespace

void standard_normal_block(std::uint64_t key, std::uint64_t first,
                           std::size_t trials, std::size_t count,
                           double* lanes, std::size_t lane_stride,
                           std::size_t tail_count, double* tail_uniforms,
                           lane_rng_scratch& scratch) {
  NWDEC_EXPECTS(lane_stride >= trials,
                "deviate block lane stride must cover every trial lane");
  const detail::rng_kernel_table& kernels = detail::active_rng_kernel_table();
  const std::size_t groups = (trials + lane_group - 1) / lane_group;
  if (scratch.state.size() < groups * mt_n * lane_group) {
    scratch.state.resize(groups * mt_n * lane_group);
  }
  scratch.seeds.resize(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    scratch.seeds[t] = rng::counter_seed(key, first + t);
  }
  kernels.seed_lanes(scratch.seeds.data(), trials, scratch.state.data());

  // Group by group: twist the next chunk of every lane at once, form its
  // polar candidates and their deviates, then walk each unfinished lane
  // across it. A lane that is not finished has consumed every word twisted
  // so far, so all unfinished lanes share one twist frontier; finished
  // lanes need no more words, so a new round may overwrite their state.
  double zx[lane_chunk / 2 * lane_group];
  double zy[lane_chunk / 2 * lane_group];
  std::uint32_t accepted[lane_group] = {};
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t* group = scratch.state.data() + g * mt_n * lane_group;
    const std::size_t first_lane = g * lane_group;
    const std::size_t width = std::min(lane_group, trials - first_lane);
    lane_cursor cursors[lane_group];
    bool done[lane_group] = {};
    std::size_t open = width;
    std::size_t twisted = mt_n;
    while (open > 0) {
      if (twisted == mt_n) twisted = 0;
      // Twist only what the neediest open lane is expected to consume: its
      // remaining pairs at ~4/pi attempts each (budgeted as 3 words a
      // pair), plus its tail words. An underestimate just takes one more
      // chunk.
      std::size_t want = 2;
      for (std::size_t l = 0; l < width; ++l) {
        if (done[l]) continue;
        const std::size_t pairs = (count - cursors[l].emitted + 1) / 2;
        want = std::max(want, pairs * 3 + 4 + tail_count - cursors[l].tails);
      }
      const std::size_t end =
          std::min({mt_n, twisted + lane_chunk, twisted + (want + 1) / 2 * 2});
      kernels.twist_lanes(group, twisted, end);
      if (count > 0) {
        kernels.lane_pairs(group + twisted * lane_group, (end - twisted) / 2,
                           zx, zy, accepted);
      }
      for (std::size_t l = 0; l < width; ++l) {
        if (done[l]) continue;
        const std::size_t t = first_lane + l;
        if (walk_lane(kernels, group, l, twisted, end, zx, zy, accepted[l],
                      count, lanes + t, lane_stride, tail_count,
                      tail_uniforms + t * tail_count, cursors[l])) {
          done[l] = true;
          --open;
        }
      }
      twisted = end;
    }
  }
}

}  // namespace nwdec