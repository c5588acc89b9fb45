// Reproduces Fig. 8: average area per functional bit for every code type
// (TC, GC, BGC, HC, AHC) at code lengths 6, 8 and 10 (plus 4 for the hot
// family, where it is the natural lower end), on the 16 kB platform.
//
// Paper shape: bit area falls with code length for the tree family (-51%
// for TC from 6 to 10); BGC < GC < TC (BGC ~30% denser than TC at M = 8);
// the hot family bottoms out at M = 6; the global optimum is the balanced
// Gray code at M = 10 (169 nm^2) followed by the arranged hot code
// (175 nm^2).
#include <iostream>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;
  using codes::code_type;

  cli_parser cli("fig8_bit_area", "Fig. 8 -- area per functional bit");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_string("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 0;

  crossbar::crossbar_spec spec;
  spec.nanowires_per_half_cave =
      static_cast<std::size_t>(cli.get_int("nanowires"));
  const core::sweep_engine engine(spec, device::paper_technology());

  bench::banner("Figure 8", "average area per functional bit");
  std::cout << "platform: " << spec.raw_bits
            << " raw crosspoints, P_N = 10 nm, P_L = 32 nm\n\n";

  const auto results =
      engine.run(core::sweep_axes{.designs = core::yield_grid()}).entries;

  text_table table({"code", "M", "Y^2", "total area [um^2]",
                    "bit area [nm^2]"});
  auto csv = bench::open_csv(cli.get_string("csv"),
                             {"code", "M", "crosspoint_yield",
                              "total_area_nm2", "bit_area_nm2"});
  for (const core::sweep_engine_entry& entry : results) {
    const core::design_evaluation& e = entry.evaluation;
    table.add_row({codes::code_type_name(e.point.type),
                   format_count(e.point.length),
                   format_percent(e.crosspoint_yield),
                   format_fixed(e.total_area_nm2 / 1e6, 2),
                   format_fixed(e.bit_area_nm2, 1)});
    if (csv) {
      csv->add_row({codes::code_type_name(e.point.type),
                    std::to_string(e.point.length),
                    format_fixed(e.crosspoint_yield, 4),
                    format_fixed(e.total_area_nm2, 1),
                    format_fixed(e.bit_area_nm2, 2)});
    }
  }
  table.print(std::cout);

  const auto& get = [&results](code_type t, std::size_t m) -> const auto& {
    return core::find_evaluation(results, t, m);
  };
  const double tc_saving =
      100.0 * (1.0 - get(code_type::tree, 10).bit_area_nm2 /
                         get(code_type::tree, 6).bit_area_nm2);
  const double bgc_saving =
      100.0 * (1.0 - get(code_type::balanced_gray, 8).bit_area_nm2 /
                         get(code_type::tree, 8).bit_area_nm2);
  const auto& best = core::best_bit_area(results);

  std::cout << "\npaper-vs-measured:\n"
            << "  TC bit-area saving 6 -> 10 [%]:  "
            << bench::versus(tc_saving,
                             core::paper_claims::tree_6_to_10_area_saving_percent)
            << "\n  BGC vs TC saving at M = 8 [%]:   "
            << bench::versus(bgc_saving,
                             core::paper_claims::bgc_vs_tree_area_at_8_percent)
            << "\n  best BGC bit area [nm^2]:        "
            << bench::versus(
                   get(code_type::balanced_gray, 10).bit_area_nm2,
                   core::paper_claims::best_bgc_bit_area_nm2)
            << "\n  best AHC bit area [nm^2]:        "
            << bench::versus(
                   std::min(get(code_type::arranged_hot, 6).bit_area_nm2,
                            get(code_type::arranged_hot, 8).bit_area_nm2),
                   core::paper_claims::best_ahc_bit_area_nm2)
            << "\n  overall optimum:                 " << best.point.label()
            << " at " << format_fixed(best.bit_area_nm2, 1)
            << " nm^2 (paper: BGC-10 at 169 nm^2)\n";
  return 0;
}
