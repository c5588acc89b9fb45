// Margin-sweep oracles for the lane-mask verdicts (the nwdec_testkit
// library). The production engine decides the operational criterion with
// lane bitmasks (decoder::below_level_masks, addressable_group_masks);
// these kernels decide it the long way, as running minima of
// (gate - vt) over every region of every (member, impostor) pair, on the
// same structure-of-arrays slab: region j of nanowire r, lane t at
// vt_lanes[(r * regions + j) * lane_stride + t]. A lane conducts iff its
// margin is > 0 (for finite doubles, a > b iff a - b > 0). Plain scalar
// loops, never dispatched.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nwdec::testkit {

/// One drive row against `lanes` realized rows: conducts_out[t] = 1 when
/// lane t conducts, else 0. Returns true when any lane conducts.
bool conducts_block(const double* gate_voltages, const double* realized_lanes,
                    std::size_t lane_stride, std::size_t regions,
                    std::size_t lanes, std::uint8_t* conducts_out);

/// addressable_out[t] = 1.0 when, in lane t, nanowire `self` conducts
/// under `gate_voltages` while every other listed member blocks, else 0.0.
/// `members` may include `self` (it is skipped). `margin_scratch` holds
/// 2 * lanes doubles. Returns true when any lane stays addressable.
bool addressable_block(const double* gate_voltages, const double* vt_lanes,
                       std::size_t lane_stride, std::size_t regions,
                       std::size_t lanes, std::size_t self,
                       const std::size_t* members, std::size_t member_count,
                       double* margin_scratch, double* addressable_out);

/// addressable_block for every member of one contact group: member k
/// (nanowire members[k], driven by drive_table + members[k] * regions)
/// gets its 1.0 / 0.0 lane verdicts at out[k * out_stride + t].
/// `margin_scratch` holds (member_count + 1) * lanes doubles.
void addressable_group_block(const double* drive_table,
                             const double* vt_lanes, std::size_t lane_stride,
                             std::size_t regions, std::size_t lanes,
                             const std::size_t* members,
                             std::size_t member_count, double* margin_scratch,
                             double* out, std::size_t out_stride);

}  // namespace nwdec::testkit
