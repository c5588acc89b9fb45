// Compares all five code families on the decoder cost functions for a
// configurable half cave -- the library-level view of the paper's Sec. 5.
//
//   $ ./code_comparison --nanowires 20 --length 8
//   $ ./code_comparison --radix 3 --length 6   (ternary logic)
#include <iostream>

#include "codes/factory.h"
#include "codes/metrics.h"
#include "decoder/decoder_design.h"
#include "decoder/margins.h"
#include "device/tech_params.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("code_comparison",
                 "decoder cost comparison across code families");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_int("length", 8, "full code length M");
  cli.add_int("radix", 2, "logic values n");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const std::size_t n = static_cast<std::size_t>(cli.get_int("nanowires"));
  const std::size_t m = static_cast<std::size_t>(cli.get_int("length"));
  const unsigned radix = static_cast<unsigned>(cli.get_int("radix"));
  const device::technology tech = device::paper_technology();

  text_table table({"code", "Omega", "transitions", "digit spread", "Phi",
                    "||Sigma||_1", "avg Sigma", "worst margin", "antichain"});

  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray, codes::code_type::hot,
        codes::code_type::arranged_hot}) {
    // Hot codes need M divisible by the radix; tree family needs even M.
    const bool hot_family = type == codes::code_type::hot ||
                            type == codes::code_type::arranged_hot;
    if (hot_family && m % radix != 0) continue;
    if (!hot_family && m % 2 != 0) continue;

    const codes::code code = codes::make_code(type, radix, m);
    const decoder::decoder_design design(code, n, tech);
    const codes::transition_stats stats = codes::analyze_transitions(
        code.pattern_sequence(n), /*cyclic=*/false);

    const decoder::margin_analysis margins = decoder::analyze_margins(design);
    table.add_row({codes::code_type_name(type), format_count(code.size()),
                   format_count(stats.total),
                   format_count(stats.digit_spread),
                   format_count(design.fabrication_complexity()),
                   format_count(design.variability_norm_sigma_units()),
                   format_fixed(design.average_variability_sigma_units(), 2),
                   format_fixed(margins.worst_margin, 2) + " sigma",
                   codes::is_antichain(code.words) ? "yes" : "NO"});
  }

  std::cout << "decoder costs for N = " << n << ", M = " << m << ", radix "
            << radix << " (sigma^2 units):\n";
  table.print(std::cout);
  std::cout << "\nGray/balanced-Gray and the arranged hot code minimize the "
               "transition count,\nwhich drives both Phi and ||Sigma||_1 "
               "(Propositions 4-5 of the paper).\n";
  return 0;
}
