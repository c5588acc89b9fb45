// Internal per-path tables for the bulk deviate work behind block_rng and
// standard_normal_block (util/rng.h): tempering a run of raw mt19937_64
// state words and converting them to canonical doubles (and polar-pair
// candidates) in bulk, and seeding and twisting many streams at once in a
// lane-parallel (structure-of-arrays) state.
//
// Each table is produced by one translation unit compiled for one target
// ISA -- rng_kernels_{scalar,sse2,avx2,avx512}.cpp all include
// rng_kernels_body.inc with different compiler flags -- and rng.cpp picks a
// table through cpu::active_path(). Every path performs the identical IEEE
// operations per word (the two-halves u64->double conversion with its
// single rounding, the min clamp, the 2u-1 affine map, mul + add for r2,
// all with FP contraction disabled), so the converted values are
// bit-identical on every path; only throughput differs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace nwdec::detail {

/// Streams per lane group of the lane-parallel state: group g holds lanes
/// [8g, 8g + 8), and word i of lane l sits at
/// state[(g * 312 + i) * lane_group + l % lane_group] -- one 64-byte row
/// per state word, so a group's whole state (20 KB) stays L1-resident
/// while its deviates are walked.
inline constexpr std::size_t lane_group = 8;

struct rng_kernel_table {
  const char* name;

  /// out[k] = to_unit(temper(words[k])) for k in [0, count) -- the
  /// canonical conversion of `count` upcoming raw state words, without
  /// advancing any engine state (tempering is pure).
  void (*units_from_words)(const std::uint64_t* words, std::size_t count,
                           double* out);

  /// Polar-pair candidates from 2 * `pairs` upcoming raw state words:
  /// px[p] = 2*unit(words[2p]) - 1, py[p] = 2*unit(words[2p+1]) - 1,
  /// pr2[p] = px^2 + py^2. Requires pairs <= 64 (the callers' peek window
  /// bound; implementations may use fixed stack staging of that size).
  void (*pairs_from_words)(const std::uint64_t* words, std::size_t pairs,
                           double* px, double* py, double* pr2);

  /// Lane-parallel seeding: lane l of the lane-group state (layout above)
  /// receives std::mt19937_64{seeds[l]}'s initial 312 words, for l in
  /// [0, lanes). Lanes past `lanes` in the last group are seeded from 0
  /// (state is written, never read). `state` holds
  /// ceil(lanes / lane_group) * 312 * lane_group words.
  void (*seed_lanes)(const std::uint64_t* seeds, std::size_t lanes,
                     std::uint64_t* state);

  /// Twists words [begin, end) of the current round of one lane group in
  /// place, every lane by mt19937_64's recurrence (the same split at the
  /// wrap points as block_rng's lazy twist). Requires end <= 312.
  void (*twist_lanes)(std::uint64_t* group_state, std::size_t begin,
                      std::size_t end);

  /// Polar-pair candidates of one lane group: pair p of lane l comes from
  /// rows 2p and 2p + 1 of `rows` (row r, lane l at rows[r * lane_group +
  /// l]) exactly as pairs_from_words forms them, and lands at
  /// p * lane_group + l of px / py / pr2. Requires pairs <= 32.
  void (*lane_pairs)(const std::uint64_t* rows, std::size_t pairs,
                     double* px, double* py, double* pr2);

};

/// Per-path table getters; nullptr when the build could not compile that
/// ISA (missing -m flag support, non-x86 target). scalar is never null.
const rng_kernel_table* scalar_rng_kernel_table();
const rng_kernel_table* sse2_rng_kernel_table();
const rng_kernel_table* avx2_rng_kernel_table();
const rng_kernel_table* avx512_rng_kernel_table();

/// The table for `path`, or nullptr when that path is not compiled in.
const rng_kernel_table* rng_kernel_table_for(cpu::simd_path path);

/// The table cpu::active_path() selects. Throws logic_invariant_error if
/// the active path has no compiled table (build/dispatch skew).
const rng_kernel_table& active_rng_kernel_table();

}  // namespace nwdec::detail
