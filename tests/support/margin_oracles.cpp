#include "margin_oracles.h"

namespace nwdec::testkit {

namespace {

// margin[t] = min over regions j of (gate[j] - vt), lane by lane.
void margin_sweep(const double* gate, const double* lanes_base,
                  std::size_t lane_stride, std::size_t regions,
                  std::size_t lanes, double* margin) {
  for (std::size_t t = 0; t < lanes; ++t) margin[t] = gate[0] - lanes_base[t];
  for (std::size_t j = 1; j < regions; ++j) {
    const double* vt = lanes_base + j * lane_stride;
    for (std::size_t t = 0; t < lanes; ++t) {
      const double d = gate[j] - vt[t];
      margin[t] = margin[t] < d ? margin[t] : d;
    }
  }
}

}  // namespace

bool conducts_block(const double* gate_voltages, const double* realized_lanes,
                    std::size_t lane_stride, std::size_t regions,
                    std::size_t lanes, std::uint8_t* conducts_out) {
  bool any = false;
  for (std::size_t t = 0; t < lanes; ++t) {
    double margin = 0.0;
    margin_sweep(gate_voltages, realized_lanes + t, lane_stride, regions, 1,
                 &margin);
    conducts_out[t] = margin > 0.0 ? 1 : 0;
    any = any || margin > 0.0;
  }
  return any;
}

bool addressable_block(const double* gate_voltages, const double* vt_lanes,
                       std::size_t lane_stride, std::size_t regions,
                       std::size_t lanes, std::size_t self,
                       const std::size_t* members, std::size_t member_count,
                       double* margin_scratch, double* addressable_out) {
  double* self_margin = margin_scratch;
  double* member_margin = margin_scratch + lanes;
  margin_sweep(gate_voltages, vt_lanes + self * regions * lane_stride,
               lane_stride, regions, lanes, self_margin);
  for (std::size_t k = 0; k < member_count; ++k) {
    const std::size_t other = members[k];
    if (other == self) continue;
    margin_sweep(gate_voltages, vt_lanes + other * regions * lane_stride,
                 lane_stride, regions, lanes, member_margin);
    for (std::size_t t = 0; t < lanes; ++t) {
      if (member_margin[t] > 0.0) self_margin[t] = -1.0;
    }
  }
  bool any = false;
  for (std::size_t t = 0; t < lanes; ++t) {
    const bool ok = self_margin[t] > 0.0;
    addressable_out[t] = ok ? 1.0 : 0.0;
    any = any || ok;
  }
  return any;
}

void addressable_group_block(const double* drive_table,
                             const double* vt_lanes, std::size_t lane_stride,
                             std::size_t regions, std::size_t lanes,
                             const std::size_t* members,
                             std::size_t member_count, double* margin_scratch,
                             double* out, std::size_t out_stride) {
  for (std::size_t k = 0; k < member_count; ++k) {
    addressable_block(drive_table + members[k] * regions, vt_lanes,
                      lane_stride, regions, lanes, members[k], members,
                      member_count, margin_scratch, out + k * out_stride);
  }
}

}  // namespace nwdec::testkit
