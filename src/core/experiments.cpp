#include "core/experiments.h"

#include <algorithm>
#include <cmath>

#include "codes/factory.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "util/error.h"

namespace nwdec::core {

std::vector<fig5_row> run_fig5(std::size_t nanowires,
                               std::size_t full_length) {
  const device::technology tech = device::paper_technology();
  std::vector<fig5_row> rows;
  for (const unsigned radix : {2u, 3u, 4u}) {
    const decoder::decoder_design tree(
        codes::make_code(codes::code_type::tree, radix, full_length),
        nanowires, tech);
    const decoder::decoder_design gray(
        codes::make_code(codes::code_type::gray, radix, full_length),
        nanowires, tech);
    fig5_row row;
    row.radix = radix;
    row.tree_phi = tree.fabrication_complexity();
    row.gray_phi = gray.fabrication_complexity();
    row.gray_saving_percent =
        100.0 * (static_cast<double>(row.tree_phi) -
                 static_cast<double>(row.gray_phi)) /
        static_cast<double>(row.tree_phi);
    rows.push_back(row);
  }
  return rows;
}

std::vector<fig6_surface> run_fig6(std::size_t nanowires) {
  const device::technology tech = device::paper_technology();
  std::vector<fig6_surface> out;
  for (const std::size_t length : {std::size_t{8}, std::size_t{10}}) {
    for (const codes::code_type type :
         {codes::code_type::tree, codes::code_type::gray,
          codes::code_type::balanced_gray}) {
      const decoder::decoder_design design(
          codes::make_code(type, 2, length), nanowires, tech);
      fig6_surface surface;
      surface.type = type;
      surface.length = length;
      surface.sqrt_normalized = design.dose_counts().map<double>(
          [](std::size_t nu) { return std::sqrt(static_cast<double>(nu)); });
      surface.average_variability = design.average_variability_sigma_units();
      surface.average_sqrt_level =
          surface.sqrt_normalized.sum() /
          static_cast<double>(surface.sqrt_normalized.size());
      surface.worst_digit_level = surface.sqrt_normalized.max();
      out.push_back(std::move(surface));
    }
  }
  return out;
}

std::vector<design_point> yield_grid() {
  std::vector<design_point> grid;
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray}) {
    for (const std::size_t length :
         {std::size_t{6}, std::size_t{8}, std::size_t{10}}) {
      grid.push_back(design_point{type, 2, length});
    }
  }
  for (const codes::code_type type :
       {codes::code_type::hot, codes::code_type::arranged_hot}) {
    for (const std::size_t length : {std::size_t{4}, std::size_t{6},
                                     std::size_t{8}, std::size_t{10}}) {
      grid.push_back(design_point{type, 2, length});
    }
  }
  return grid;
}

std::vector<design_point> fig7_grid() {
  std::vector<design_point> grid;
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::balanced_gray}) {
    for (const std::size_t length :
         {std::size_t{6}, std::size_t{8}, std::size_t{10}}) {
      grid.push_back(design_point{type, 2, length});
    }
  }
  for (const codes::code_type type :
       {codes::code_type::hot, codes::code_type::arranged_hot}) {
    for (const std::size_t length :
         {std::size_t{4}, std::size_t{6}, std::size_t{8}}) {
      grid.push_back(design_point{type, 2, length});
    }
  }
  return grid;
}

const design_evaluation& find_evaluation(
    const std::vector<sweep_engine_entry>& entries, codes::code_type type,
    std::size_t length) {
  for (const sweep_engine_entry& entry : entries) {
    const design_point& point = entry.evaluation.point;
    if (point.type == type && point.length == length) return entry.evaluation;
  }
  throw not_found_error("design point " +
                        codes::code_type_name(type) + "-" +
                        std::to_string(length) + " not in the result set");
}

const design_evaluation& best_bit_area(
    const std::vector<sweep_engine_entry>& entries) {
  NWDEC_EXPECTS(!entries.empty(), "nothing to rank");
  return std::min_element(entries.begin(), entries.end(),
                          [](const sweep_engine_entry& a,
                             const sweep_engine_entry& b) {
                            return a.evaluation.bit_area_nm2 <
                                   b.evaluation.bit_area_nm2;
                          })
      ->evaluation;
}

}  // namespace nwdec::core
