// block_rng and standard_normal_block: mt19937_64 streams drawn under the
// deviate contract util/rng.h pins, one stream at a time (block_rng) or a
// trial block's streams lane-parallel (standard_normal_block). Both split
// the twist at its wrap points so the bodies are branch-free, and twist
// lazily in chunks: a per-trial stream that consumes ~200 draws never pays
// for the full 312-word round the eager std engine generates.
#include "util/rng.h"

#include <algorithm>
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

void block_rng::canonical_fill(double* out, std::size_t count,
                               std::size_t stride) {
  // Peek-convert upcoming state words in bulk windows: tempering and the
  // canonical conversion are pure, so a window of words is converted
  // through the dispatched vector kernel and the index advanced by the
  // whole window -- the same values, in the same order, at the same final
  // position as `count` canonical() calls.
  const detail::rng_kernel_table& kernels = detail::active_rng_kernel_table();
  constexpr std::size_t max_chunk = 64;
  double unit[max_chunk];
  std::size_t k = 0;
  while (k < count) {
    if (index_ >= mt_n) {
      index_ = 0;
      twisted_ = 0;
    }
    if (twisted_ <= index_) {
      const std::size_t need = std::min(count - k, twist_chunk);
      twist_to(std::min(mt_n, std::max(twisted_ + 1, index_ + need)));
    }
    const std::size_t window =
        std::min({count - k, twisted_ - index_, max_chunk});
    if (stride == 1) {
      kernels.units_from_words(state_ + index_, window, out + k);
    } else {
      kernels.units_from_words(state_ + index_, window, unit);
      for (std::size_t w = 0; w < window; ++w) {
        out[(k + w) * stride] = unit[w];
      }
    }
    index_ += window;
    k += window;
  }
}

void block_rng::standard_normal_fill(double* out, std::size_t count,
                                     std::size_t stride) {
  // The pinned Marsaglia polar rule (see the class comment): draw x then y,
  // reject until 0 < r2 <= 1, emit y*mult then x*mult. Expressions mirror
  // the std path exactly -- same operations in the same order -- so every
  // emitted double is bit-identical to rng::standard_normal_fill.
  //
  // Structure: tempering and the canonical conversion are pure, so a run
  // of upcoming draws is peek-converted in bulk through the dispatched
  // vector kernels (util/rng_kernels.h) and the candidate pairs' rejection
  // radii are precomputed; a compress-store pass then packs the accepted
  // pairs densely, so the log/sqrt runs over a branchless dense array and
  // only for pairs actually emitted. State advances by exactly the pairs
  // consumed -- a draw-for-draw match with the one-at-a-time path,
  // including the engine position the trial's tail draws continue from.
  const detail::rng_kernel_table& kernels = detail::active_rng_kernel_table();
  constexpr std::size_t max_words = 64;
  double px[max_words / 2], py[max_words / 2], pr2[max_words / 2];
  double ax[max_words / 2], ay[max_words / 2], ar2[max_words / 2];
  double am[max_words / 2];
  std::size_t apos[max_words / 2];

  std::size_t k = 0;
  while (k < count) {
    // Peek/twist budget: expected draws for the remaining pairs (two per
    // attempt, ~4/pi attempts per accepted pair) plus slack. An
    // underestimate just loops again; without the cap the last window
    // tempers and converts ~25 words the fill never consumes.
    const std::size_t budget = ((count - k + 1) / 2) * 3 + 4;
    if (index_ >= mt_n) {
      index_ = 0;
      twisted_ = 0;
    }
    if (twisted_ - index_ < 2 && twisted_ < mt_n) {
      const std::size_t want =
          std::min(index_ + budget, twisted_ + twist_chunk);
      twist_to(std::min(mt_n, std::max(twisted_ + 2, want)));
    }
    if (twisted_ - index_ < 2) {
      // A lone word at the end of the twist round: the pair spans the
      // round boundary, so take it through the one-draw path (next()
      // handles the wrap) and loop.
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
      continue;
    }

    const std::size_t words = std::min(
        {max_words, (twisted_ - index_) & ~std::size_t{1},
         std::max<std::size_t>(2, budget & ~std::size_t{1})});
    const std::size_t pairs = words / 2;
    kernels.pairs_from_words(state_ + index_, pairs, px, py, pr2);

    // Compress-store acceptance: every slot is written unconditionally and
    // the acceptance test is just the cursor increment, so the loop is
    // branch-free; apos remembers each accepted pair's window position for
    // the consumption accounting below.
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double r2 = pr2[p];
      ax[accepted] = px[p];
      ay[accepted] = py[p];
      ar2[accepted] = r2;
      apos[accepted] = p;
      accepted += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
    }
    const std::size_t need_pairs = (count - k + 1) / 2;
    const std::size_t use = accepted < need_pairs ? accepted : need_pairs;
    for (std::size_t a = 0; a < use; ++a) {
      am[a] = std::sqrt(-2.0 * std::log(ar2[a]) / ar2[a]);
    }
    for (std::size_t a = 0; a < use; ++a) {
      out[k * stride] = ay[a] * am[a];
      ++k;
      if (k < count) {
        out[k * stride] = ax[a] * am[a];
        ++k;
      }
    }
    // The one-at-a-time path consumes pairs up to and including the one
    // that completes `count` (trailing rejects stay unconsumed); when
    // acceptance ran dry first it swept the whole window.
    const std::size_t consumed =
        use == need_pairs ? apos[use - 1] + 1 : pairs;
    index_ += 2 * consumed;
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
// are out (the block_rng::standard_normal_fill walk: compress-store the
// accepted pairs, log/sqrt densely over them, consume through the pair
// that completes the fill), then single tail words until `tail_count`
// uniforms are out. Returns true when the lane needs no further words.
bool walk_lane(const detail::rng_kernel_table& kernels,
               const std::uint64_t* group, std::size_t lane,
               std::size_t begin, std::size_t end, const double* px,
               const double* py, const double* pr2, std::size_t count,
               double* out, std::size_t stride, std::size_t tail_count,
               double* tail_out, lane_cursor& cursor) {
  std::size_t position = begin;
  if (cursor.emitted < count) {
    // Compress-store of the accepted pairs' positions (branch-free: every
    // slot is written, acceptance only moves the cursor).
    std::size_t apos[lane_chunk / 2];
    double am[lane_chunk / 2];
    const std::size_t pairs = (end - begin) / 2;
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double r2 = pr2[p * lane_group + lane];
      apos[accepted] = p * lane_group + lane;
      accepted += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
    }
    const std::size_t need_pairs = (count - cursor.emitted + 1) / 2;
    const std::size_t use = accepted < need_pairs ? accepted : need_pairs;
    for (std::size_t a = 0; a < use; ++a) {
      const double r2 = pr2[apos[a]];
      am[a] = std::sqrt(-2.0 * std::log(r2) / r2);
    }
    std::size_t k = cursor.emitted;
    for (std::size_t a = 0; a < use; ++a) {
      out[k * stride] = py[apos[a]] * am[a];
      ++k;
      if (k < count) {
        out[k * stride] = px[apos[a]] * am[a];
        ++k;
      }
    }
    cursor.emitted = k;
    if (k < count) return false;
    position = begin + 2 * (apos[use - 1] / lane_group + 1);
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
  // polar candidates, then walk each unfinished lane across it. A lane
  // that is not finished has consumed every word twisted so far, so all
  // unfinished lanes share one twist frontier; finished lanes need no
  // more words, so a new round may overwrite their state.
  double px[lane_chunk / 2 * lane_group];
  double py[lane_chunk / 2 * lane_group];
  double pr2[lane_chunk / 2 * lane_group];
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
                           px, py, pr2);
      }
      for (std::size_t l = 0; l < width; ++l) {
        if (done[l]) continue;
        const std::size_t t = first_lane + l;
        if (walk_lane(kernels, group, l, twisted, end, px, py, pr2, count,
                      lanes + t, lane_stride, tail_count,
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