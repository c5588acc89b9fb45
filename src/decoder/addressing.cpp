#include "decoder/addressing.h"

#include <algorithm>

#include "decoder/addressing_kernels.h"
#include "util/cpu.h"
#include "util/error.h"

namespace nwdec::decoder {

bool conducts(const codes::code_word& pattern,
              const codes::code_word& address) {
  return pattern.componentwise_le(address);
}

bool conducts(const std::vector<double>& realized_vt,
              const std::vector<double>& gate_voltages) {
  NWDEC_EXPECTS(realized_vt.size() == gate_voltages.size(),
                "one gate voltage per doping region required");
  for (std::size_t j = 0; j < realized_vt.size(); ++j) {
    if (gate_voltages[j] <= realized_vt[j]) return false;
  }
  return true;
}

namespace detail {

const kernel_table* kernel_table_for(cpu::simd_path path) {
  switch (path) {
    case cpu::simd_path::scalar:
      return scalar_kernel_table();
    case cpu::simd_path::sse2:
      return sse2_kernel_table();
    case cpu::simd_path::avx2:
      return avx2_kernel_table();
    case cpu::simd_path::avx512:
      return avx512_kernel_table();
  }
  return scalar_kernel_table();
}

const kernel_table& active_kernel_table() {
  const kernel_table* table = kernel_table_for(cpu::active_path());
  // active_path() only hands out compiled paths (cpu::path_compiled gates
  // on the identically-conditioned rng tables); a null table here means
  // the two kernel sets' build gating diverged.
  NWDEC_ENSURES(table != nullptr,
                "active SIMD path has no compiled margin-kernel table");
  return *table;
}

}  // namespace detail

void below_level_masks(const double* z_lanes, std::size_t lane_stride,
                       std::size_t rows, std::size_t lanes,
                       const double* offsets, const double* scales,
                       const double* levels, std::size_t level_count,
                       std::uint64_t* out) {
  NWDEC_EXPECTS(lanes >= 1, "below_level_masks needs at least one lane");
  NWDEC_EXPECTS(lane_stride >= lanes, "lane stride must cover every lane");
  detail::active_kernel_table().below_level_masks(
      z_lanes, lane_stride, rows, lanes, offsets, scales, levels,
      level_count, out);
}

void addressable_group_masks(const std::uint64_t* below,
                             const codes::digit* digits, std::size_t regions,
                             std::size_t level_count, std::size_t words,
                             const std::size_t* members,
                             std::size_t member_count, std::uint64_t* out) {
  NWDEC_EXPECTS(member_count >= 1,
                "a contact group holds at least one member");
  NWDEC_EXPECTS(regions >= 1, "addressable_group_masks needs regions");
  const std::size_t row_words = regions * level_count * words;
  // Lanes of `live` in which nanowire `row` conducts under `address`: one
  // AND per region, checking for an empty set only every 8 regions -- a
  // blocked impostor usually dies at a data-dependent region, and a
  // straight run of ANDs is cheaper than a mispredicted exit per pair.
  const auto conducting = [&](std::size_t row, const codes::digit* address,
                              std::size_t word, std::uint64_t live) {
    const std::uint64_t* masks = below + row * row_words + word;
    for (std::size_t j = 0; j < regions && live != 0;) {
      const std::size_t stop = std::min(regions, j + 8);
      for (; j < stop; ++j) {
        live &= masks[(j * level_count + address[j]) * words];
      }
    }
    return live;
  };
  for (std::size_t k = 0; k < member_count; ++k) {
    const codes::digit* address = digits + members[k] * regions;
    for (std::size_t word = 0; word < words; ++word) {
      std::uint64_t ok = conducting(members[k], address, word, ~0ULL);
      for (std::size_t o = 0; o < member_count && ok != 0; ++o) {
        if (o != k) ok &= ~conducting(members[o], address, word, ok);
      }
      out[k * words + word] = ok;
    }
  }
}

bool window_margin_block(const double* vt_lanes_row, std::size_t lane_stride,
                         std::size_t lanes, const double* nominal,
                         const double* low_guard, double window_half_width,
                         std::size_t regions, double* margin, double* out) {
  NWDEC_EXPECTS(regions >= 1 && lanes >= 1,
                "window_margin_block needs at least one region and one lane");
  return detail::active_kernel_table().window_margin_block(
      vt_lanes_row, lane_stride, lanes, nominal, low_guard,
      window_half_width, regions, margin, out);
}

std::vector<double> drive_pattern(const codes::code_word& w,
                                  const device::vt_levels& levels) {
  std::vector<double> out;
  drive_pattern_into(w, levels, out);
  return out;
}

void drive_pattern_into(const codes::code_word& w,
                        const device::vt_levels& levels,
                        std::vector<double>& out) {
  NWDEC_EXPECTS(w.radix() == levels.radix(),
                "address radix must match the level count");
  out.resize(w.length());
  for (std::size_t j = 0; j < w.length(); ++j) {
    out[j] = levels.drive_voltage(w.at(j));
  }
}

std::vector<std::size_t> addressed_rows(const matrix<codes::digit>& pattern,
                                        unsigned radix,
                                        const codes::code_word& address) {
  NWDEC_EXPECTS(pattern.cols() == address.length(),
                "address length must match the region count");
  NWDEC_EXPECTS(address.radix() == radix,
                "address radix must match the pattern radix");
  // Compare row digits in place against the flat pattern buffer; building a
  // code_word per row would allocate O(rows) times per call.
  const std::size_t regions = pattern.cols();
  const codes::digit* address_digits = address.digits().data();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pattern.rows(); ++i) {
    if (codes::componentwise_le(pattern.row_ptr(i), address_digits, regions)) {
      out.push_back(i);
    }
  }
  return out;
}

bool uniquely_addressable(const std::vector<codes::code_word>& words) {
  for (const codes::code_word& address : words) {
    std::size_t selected = 0;
    for (const codes::code_word& pattern : words) {
      if (conducts(pattern, address)) ++selected;
      if (selected > 1) return false;
    }
    if (selected != 1) return false;
  }
  return true;
}

address_table::address_table(std::vector<codes::code_word> words)
    : words_(std::move(words)) {
  NWDEC_EXPECTS(!words_.empty(), "address table needs at least one word");
  NWDEC_EXPECTS(uniquely_addressable(words_),
                "the word set is not uniquely addressable (not an antichain)");
}

const codes::code_word& address_table::address_of(std::size_t index) const {
  NWDEC_EXPECTS(index < words_.size(), "nanowire index out of range");
  return words_[index];
}

std::optional<std::size_t> address_table::select(
    const codes::code_word& address) const {
  // A valid selection turns on exactly one nanowire; an address that makes
  // several conduct (e.g. the all-high word) selects nothing usable.
  std::optional<std::size_t> selected;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (conducts(words_[i], address)) {
      if (selected.has_value()) return std::nullopt;
      selected = i;
    }
  }
  return selected;
}

}  // namespace nwdec::decoder
