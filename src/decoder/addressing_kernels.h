// Internal per-path kernel tables behind the runtime SIMD dispatch of the
// blocked lane kernels (decoder/addressing.h): the lane-mask compare pass of
// the operational criterion and the window criterion's margin sweep.
//
// Each table is produced by one translation unit compiled for one target
// ISA -- addressing_kernels_{scalar,sse2,avx2,avx512}.cpp all include
// addressing_kernels_body.inc with different compiler flags -- and the
// public entry points in addressing.cpp pick a table through
// cpu::active_path(). Every path performs the same IEEE operations per
// lane (mul, add, sub, min, ordered compares, all with FP contraction
// disabled), so the tables are bit-identical in results and differ only
// in throughput.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace nwdec::decoder::detail {

struct kernel_table {
  const char* name;

  /// decoder::below_level_masks's kernel (same contract; argument checks
  /// live in the public wrapper).
  void (*below_level_masks)(const double* z_lanes, std::size_t lane_stride,
                            std::size_t rows, std::size_t lanes,
                            const double* offsets, const double* scales,
                            const double* levels, std::size_t level_count,
                            std::uint64_t* out, const double* tolerances,
                            std::uint64_t* uncertain);

  /// decoder::window_margin_block's kernel.
  bool (*window_margin_block)(const double* vt_lanes_row,
                              std::size_t lane_stride, std::size_t lanes,
                              const double* nominal, const double* low_guard,
                              double window_half_width, std::size_t regions,
                              double* margin, double* out);
};

/// Per-path table getters; nullptr when the build could not compile that
/// ISA. scalar is never null. Gated by the same preprocessor conditions as
/// the rng kernel tables (util/rng_kernels.h), which cpu::path_compiled
/// consults for both sets.
const kernel_table* scalar_kernel_table();
const kernel_table* sse2_kernel_table();
const kernel_table* avx2_kernel_table();
const kernel_table* avx512_kernel_table();

/// The table for `path`, or nullptr when that path is not compiled in.
const kernel_table* kernel_table_for(cpu::simd_path path);

/// The table cpu::active_path() selects. Throws logic_invariant_error if
/// the active path has no compiled table (build/dispatch skew).
const kernel_table& active_kernel_table();

}  // namespace nwdec::decoder::detail
