// Experiment definitions shared by the benchmark harnesses and the
// integration tests: the runners of Figs. 5 and 6, the design grids of
// Figs. 7 and 8 (evaluated by core::sweep_engine), helpers that read an
// engine report's entries, and the paper's reported values for
// side-by-side comparison.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "codes/code_space.h"
#include "core/design_point.h"
#include "core/sweep_engine.h"
#include "util/matrix.h"

namespace nwdec::core {

// ---------------------------------------------------------------- Fig. 5
/// Fabrication complexity per code and logic type (N = 10, two free
/// digits, i.e. full length M = 4 as reconstructed in DESIGN.md).
struct fig5_row {
  unsigned radix = 2;              ///< 2 = binary, 3 = ternary, 4 = quaternary
  std::size_t tree_phi = 0;        ///< Phi of the tree code
  std::size_t gray_phi = 0;        ///< Phi of the Gray code
  double gray_saving_percent = 0;  ///< (TC - GC) / TC * 100
};

/// Runs the Fig. 5 experiment.
std::vector<fig5_row> run_fig5(std::size_t nanowires = 10,
                               std::size_t full_length = 4);

// ---------------------------------------------------------------- Fig. 6
/// One variability surface: sqrt(Sigma/sigma_T^2) per (nanowire, digit).
struct fig6_surface {
  codes::code_type type = codes::code_type::tree;
  std::size_t length = 8;             ///< L (full word length)
  matrix<double> sqrt_normalized;     ///< sqrt(nu), N x L
  double average_variability = 0.0;   ///< ||Sigma||_1/(N*L) in sigma^2 units
  /// Mean of the plotted surface sqrt(Sigma/sigma^2) -- the quantity whose
  /// GC-vs-TC reduction reproduces the paper's 18% (std-dev units).
  double average_sqrt_level = 0.0;
  double worst_digit_level = 0.0;     ///< max over the surface
};

/// Runs the Fig. 6 experiment: binary TC/GC/BGC at L in {8, 10}, N = 20.
std::vector<fig6_surface> run_fig6(std::size_t nanowires = 20);

// ------------------------------------------------------------- Figs. 7/8
/// The binary design grid of the yield and bit-area figures:
/// TC/GC/BGC at M in {6, 8, 10} and HC/AHC at M in {4, 6, 8, 10}.
std::vector<design_point> yield_grid();

/// Fig. 7's own series: TC and BGC at {6, 8, 10}; HC and AHC at {4, 6, 8}.
std::vector<design_point> fig7_grid();

// --------------------------------------------------- paper reference data
/// The quantitative claims of Sec. 6.2, used by the harnesses to print
/// paper-vs-measured tables and by the integration tests as loose oracles.
struct paper_claims {
  // Fig. 5.
  static constexpr std::size_t binary_phi = 20;        ///< 2N for N = 10
  static constexpr std::size_t ternary_tree_phi = 24;  ///< ~20% over 2N
  static constexpr double gray_step_saving_percent = 17.0;
  // Fig. 6.
  static constexpr double variability_reduction_percent = 18.0;
  // Fig. 7.
  static constexpr double tree_6_to_10_gain_percent = 40.0;
  static constexpr double ahc_4_to_8_gain_percent = 40.0;
  static constexpr double bgc_vs_tree_at_8_percent = 42.0;
  static constexpr double ahc_vs_hot_at_8_percent = 19.0;
  // Fig. 8.
  static constexpr double tree_6_to_10_area_saving_percent = 51.0;
  static constexpr double bgc_vs_tree_area_at_8_percent = 30.0;
  static constexpr double best_bgc_bit_area_nm2 = 169.0;
  static constexpr double best_ahc_bit_area_nm2 = 175.0;
};

/// Finds the evaluation of (type, length) among an engine report's
/// entries; throws not_found_error when the grid did not contain it.
const design_evaluation& find_evaluation(
    const std::vector<sweep_engine_entry>& entries, codes::code_type type,
    std::size_t length);

/// The evaluation with the smallest bit area (the paper's headline
/// optimization target); throws invalid_argument_error when `entries` is
/// empty.
const design_evaluation& best_bit_area(
    const std::vector<sweep_engine_entry>& entries);

}  // namespace nwdec::core
