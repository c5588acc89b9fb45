// Internal per-path tables for the bulk deviate work behind
// standard_normal_block (util/rng.h): tempering a run of raw mt19937_64
// state words and converting them to canonical doubles in bulk, and
// seeding, twisting and forming polar pairs for many streams at once in a
// lane-parallel (structure-of-arrays) state.
//
// Each table is produced by one translation unit compiled for one target
// ISA -- rng_kernels_{scalar,sse2,avx2,avx512}.cpp all include
// rng_kernels_body.inc with different compiler flags -- and rng.cpp picks a
// table through cpu::active_path(). Every path performs the identical IEEE
// operations per word (the two-halves u64->double conversion with its
// single rounding, the min clamp, the 2u-1 affine map, mul + add for r2,
// all with FP contraction disabled), so the converted values are
// bit-identical on every path; only throughput differs. The one exception
// is lane_pairs' polar multiplier, which the AVX2 and AVX-512 paths
// compute with a polynomial log: their deviates are certified to
// deviate_rel_bound, not bit-exact (see util/rng.h).
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

  /// Polar-pair candidates of one lane group and the deviates they emit:
  /// pair p of lane l comes from rows 2p and 2p + 1 of `rows` (row r, lane
  /// l at rows[r * lane_group + l]) as x = 2 * unit(row 2p) - 1, y = 2 *
  /// unit(row 2p + 1) - 1 and r2 = x * x + y * y, unit being
  /// units_from_words' conversion -- block_rng's polar expressions. Bit p
  /// of accepted[l] is set iff that r2 is in (0, 1] -- exact, since x, y
  /// and r2 are the scalar stream's -- and slot p * lane_group + l of
  /// zy and zx holds y * mult and x * mult, mult = sqrt(-2 log(r2) / r2).
  /// The multiplier is computed lane-parallel with a polynomial log on the
  /// AVX2 and AVX-512 paths (within deviate_rel_bound of libm's,
  /// util/rng.h) and with std::log on the plain paths. Slots of rejected
  /// candidates hold unspecified values. Requires pairs <= 32.
  void (*lane_pairs)(const std::uint64_t* rows, std::size_t pairs,
                     double* zx, double* zy, std::uint32_t* accepted);
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
