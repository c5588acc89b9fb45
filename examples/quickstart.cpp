// Quickstart: the five-minute tour of nwdec.
//
// Builds a balanced-Gray decoder for one half cave, walks the analytical
// pipeline of the paper (pattern -> doping -> step doses -> costs), and
// evaluates the resulting 16 kB crossbar memory.
//
//   $ ./quickstart
#include <iostream>

#include "codes/factory.h"
#include "core/sweep_engine.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "util/table.h"

int main() {
  using namespace nwdec;

  // 1. Pick a code: balanced Gray, binary logic, full length 8 (4 free
  //    digits reflected), giving a 16-word address space.
  const codes::code code =
      codes::make_code(codes::code_type::balanced_gray, 2, 8);
  std::cout << "code: " << codes::code_type_name(code.type) << ", radix "
            << code.radix << ", length " << code.length << ", "
            << code.size() << " words\n";
  std::cout << "first words:";
  for (std::size_t i = 0; i < 4; ++i) {
    std::cout << ' ' << code.words[i].to_string();
  }
  std::cout << " ...\n\n";

  // 2. Analyze the decoder of a 10-nanowire half cave under the paper's
  //    technology (P_L = 32 nm, P_N = 10 nm, sigma_T = 50 mV).
  const device::technology tech = device::paper_technology();
  const decoder::decoder_design design(code, 10, tech);

  std::cout << "pattern matrix P (nanowire x doping region):\n"
            << design.pattern().map<int>([](codes::digit d) { return d; })
            << "\n";
  std::cout << "fabrication complexity Phi = "
            << design.fabrication_complexity()
            << " lithography/doping steps\n";
  std::cout << "variability ||Sigma||_1 = "
            << design.variability_norm_sigma_units()
            << " sigma_T^2 (average "
            << format_fixed(design.average_variability_sigma_units(), 2)
            << " per region)\n\n";

  // 3. Evaluate the full crossbar design point: yield, effective density
  //    and bit area on the 16 kB platform.
  const core::sweep_engine engine(crossbar::crossbar_spec{}, tech);
  const core::design_evaluation result =
      engine
          .run(core::sweep_axes{.designs = {{code.type, code.radix,
                                             code.length}},
                                .mc_trials = 50})
          .entries.front()
          .evaluation;

  std::cout << "crossbar evaluation (" << result.point.label() << "):\n"
            << "  nanowire yield Y      = "
            << format_percent(result.nanowire_yield) << "\n"
            << "  crosspoint yield Y^2  = "
            << format_percent(result.crosspoint_yield) << "\n"
            << "  Monte-Carlo cross-check: "
            << format_percent(result.mc_nanowire_yield) << " (operational)\n"
            << "  effective capacity    = "
            << format_fixed(result.effective_bits / 8192.0, 1) << " kB of "
            << "16 kB raw\n"
            << "  bit area              = "
            << format_fixed(result.bit_area_nm2, 1) << " nm^2\n";
  return 0;
}
