// Reproduces Fig. 5: fabrication complexity Phi (number of additional
// lithography/doping steps) for tree vs Gray codes at binary, ternary and
// quaternary logic, N = 10 nanowires per half cave.
//
// Paper: binary codes all cost 2N = 20; the ternary tree code pays ~20%
// more (24); the Gray arrangement cancels the overhead entirely (17%
// saving).
#include <iostream>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("fig5_fabrication_complexity",
                 "Fig. 5 -- fabrication complexity per code and logic type");
  cli.add_int("nanowires", 10, "nanowires per half cave (N)");
  cli.add_int("length", 4, "full code length M (reflected)");
  cli.add_string("csv", "", "optional CSV output path");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const std::size_t n = static_cast<std::size_t>(cli.get_int("nanowires"));
  const std::size_t m = static_cast<std::size_t>(cli.get_int("length"));

  bench::banner("Figure 5", "fabrication complexity vs code and logic type");
  std::cout << "N = " << n << " nanowires/half cave, full code length M = "
            << m << "\n\n";

  const std::vector<core::fig5_row> rows = core::run_fig5(n, m);

  text_table table({"logic", "TC steps", "GC steps", "GC saving"});
  auto csv = bench::open_csv(cli.get_string("csv"),
                             {"radix", "tc_phi", "gc_phi", "saving_pct"});
  const char* names[] = {"", "", "binary", "ternary", "quaternary"};
  for (const core::fig5_row& row : rows) {
    table.add_row({names[row.radix], format_count(row.tree_phi),
                   format_count(row.gray_phi),
                   format_fixed(row.gray_saving_percent, 1) + "%"});
    if (csv) {
      csv->add_row({std::to_string(row.radix), std::to_string(row.tree_phi),
                    std::to_string(row.gray_phi),
                    format_fixed(row.gray_saving_percent, 2)});
    }
  }
  table.print(std::cout);

  const core::fig5_row& ternary = rows[1];
  std::cout << "\npaper-vs-measured:\n"
            << "  binary Phi (both codes):   "
            << bench::versus(static_cast<double>(rows[0].tree_phi),
                             core::paper_claims::binary_phi, 0)
            << "\n  ternary TC Phi:            "
            << bench::versus(static_cast<double>(ternary.tree_phi),
                             core::paper_claims::ternary_tree_phi, 0)
            << "\n  ternary GC saving:         "
            << bench::versus(ternary.gray_saving_percent,
                             core::paper_claims::gray_step_saving_percent)
            << "\n";
  return 0;
}
