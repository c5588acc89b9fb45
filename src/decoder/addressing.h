// Decoder conduction logic and address tables (Sec. 2.2, Fig. 1.c).
//
// Every doping region is a transistor in series along the nanowire; the
// region conducts when its gate (mesowire) voltage exceeds its threshold
// voltage, and the nanowire conducts when all M regions conduct. To address
// the nanowire patterned with word w, each mesowire j is driven just above
// the w_j-th level (vt_levels::drive_voltage), so a nanowire with pattern x
// conducts iff x <= w componentwise. Unique addressing therefore holds
// exactly when the code is an antichain -- which reflected tree-family
// codes and hot codes are.
//
// Two conduction entry points are provided: the nominal digit-level rule
// (used for address-table construction and code validation), and the
// voltage-level rule on *realized* V_T matrices (used by the Monte-Carlo
// yield simulator, where process variability has displaced every V_T).
//
// The Monte-Carlo engine evaluates the voltage rule over blocks of trial
// lanes. Its operational criterion needs only comparisons, so it runs on
// lane bitmasks: below_level_masks records, per (row, region, drive
// level), which lanes have V_T below that level, and
// addressable_group_masks turns those masks into a contact group's
// verdicts with ANDs and ORs. The lane kernels (below_level_masks,
// window_margin_block) are runtime-SIMD-dispatched: one binary carries
// scalar / SSE2 / AVX2 / AVX-512 instantiations and util/cpu picks the
// widest one the running CPU supports (NWDEC_SIMD_PATH overrides; see
// util/cpu.h). Every path performs the same IEEE operations per lane, so
// the chosen path never changes a result, only throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "codes/code_space.h"
#include "codes/word.h"
#include "device/vt_levels.h"
#include "util/matrix.h"

namespace nwdec::decoder {

/// Nominal rule: pattern x conducts under the address of w iff x <= w
/// componentwise (every region's level is at or below the driven level).
bool conducts(const codes::code_word& pattern, const codes::code_word& address);

/// Voltage rule: a nanowire with realized thresholds `realized_vt` (volts,
/// one entry per region) conducts under `gate_voltages` iff every region
/// satisfies gate > threshold.
bool conducts(const std::vector<double>& realized_vt,
              const std::vector<double>& gate_voltages);

/// Span form of the voltage rule for flat buffers (a realized-Vt matrix row
/// against a precomputed drive-table row). Unchecked: the caller guarantees
/// both spans hold `regions` entries. The Monte-Carlo yield engine's
/// allocation-free inner loop (trial_context::operational_ok) calls this.
inline bool conducts(const double* realized_vt, const double* gate_voltages,
                     std::size_t regions) {
  for (std::size_t j = 0; j < regions; ++j) {
    if (gate_voltages[j] <= realized_vt[j]) return false;
  }
  return true;
}

/// Lane masks of the voltage rule's comparisons, on thresholds realized
/// from standard deviates in the same pass. Row r (one region of one
/// nanowire) holds lane t's deviate at z_lanes[r * lane_stride + t], and
/// its realized threshold is vt = offsets[r] + scales[r] * z (the
/// Monte-Carlo kernel's nominal + sigma * sqrt(nu) * z, rounded the same
/// way on every path; offset 0 and scale 1 compare the slab as is). For
/// every row r, level d and lane t < lanes, bit t % 64 of
/// out[(r * level_count + d) * words + t / 64] is set iff vt < levels[d],
/// with words = ceil(lanes / 64); bits past `lanes` are clear. When
/// `levels` are the drive voltages, this is exactly the scalar rule's
/// per-region test (gate > vt). Requires lanes >= 1 and
/// lane_stride >= lanes.
void below_level_masks(const double* z_lanes, std::size_t lane_stride,
                       std::size_t rows, std::size_t lanes,
                       const double* offsets, const double* scales,
                       const double* levels, std::size_t level_count,
                       std::uint64_t* out);

/// Operational verdicts of one contact group from below_level_masks over
/// the drive levels (rows = nanowires x regions, row-major). Nanowire a
/// conducts under the address of nanowire w in lane t iff, for every
/// region j, its mask for (a, j, digits[w * regions + j]) has bit t; member
/// k (nanowire members[k]) is addressable in lane t iff it conducts under
/// its own address and no other listed member does. Writes those lane
/// masks to out[k * words + word]. Works for any radix, code length, group
/// size and lane count. Requires member_count >= 1 and regions >= 1.
void addressable_group_masks(const std::uint64_t* below,
                             const codes::digit* digits, std::size_t regions,
                             std::size_t level_count, std::size_t words,
                             const std::size_t* members,
                             std::size_t member_count, std::uint64_t* out);

/// Blocked window-criterion kernel (the Monte-Carlo engine's mc_mode::
/// window): out[t] = 1.0 when lane t's realized V_T sits inside the
/// assignment window of every region, else 0.0. One nanowire's lane rows:
/// region j of lane t at vt_lanes_row[j * lane_stride + t]; `nominal` and
/// `low_guard` hold the nanowire's M window centers and lower guards
/// (-window_half_width, or -infinity where digit 0 exempts the lower
/// bound), folded into a running-min margin per lane, and dispatched
/// through the same per-ISA tables as below_level_masks. `margin` must
/// hold `lanes` doubles. Returns true when any lane passes. Requires
/// regions >= 1 and lanes >= 1.
bool window_margin_block(const double* vt_lanes_row, std::size_t lane_stride,
                         std::size_t lanes, const double* nominal,
                         const double* low_guard, double window_half_width,
                         std::size_t regions, double* margin, double* out);

/// Mesowire voltages driving the address of word w.
std::vector<double> drive_pattern(const codes::code_word& w,
                                  const device::vt_levels& levels);

/// Buffer-reuse form of drive_pattern: writes the w.length() drive voltages
/// into `out` (resized as needed, reusing capacity).
void drive_pattern_into(const codes::code_word& w,
                        const device::vt_levels& levels,
                        std::vector<double>& out);

/// Indices of the pattern rows that conduct under the address of `address`
/// (nominal rule).
std::vector<std::size_t> addressed_rows(const matrix<codes::digit>& pattern,
                                        unsigned radix,
                                        const codes::code_word& address);

/// True when every word in `words` addresses exactly one word of the set
/// (itself) under the nominal rule -- the operational definition of unique
/// addressability the antichain property guarantees.
bool uniquely_addressable(const std::vector<codes::code_word>& words);

/// Address lookup table for one contact group: maps each code word to the
/// in-group nanowire index it selects, and exposes the inverse.
class address_table {
 public:
  /// Builds the table for a group whose nanowires are patterned with
  /// `words` (all distinct); verifies unique addressability.
  explicit address_table(std::vector<codes::code_word> words);

  /// Number of addressable nanowires.
  std::size_t size() const { return words_.size(); }

  /// The address (code word) selecting in-group nanowire `index`.
  const codes::code_word& address_of(std::size_t index) const;

  /// The in-group nanowire index selected by `address`, or nullopt when the
  /// address matches no nanowire -- or more than one (an over-driving word
  /// like the all-high address makes several nanowires conduct and selects
  /// nothing usable).
  std::optional<std::size_t> select(const codes::code_word& address) const;

 private:
  std::vector<codes::code_word> words_;
};

}  // namespace nwdec::decoder
