// Extension: design scaling. Two sweeps the paper fixes by fiat:
//
//  (1) Crossbar capacity D_RAW. The decoder and cave-wall overheads
//      amortize with array size, so the bit area falls toward the
//      yield-limited asymptote P_N^2 / Y^2; the optimal code choice is
//      stable across sizes.
//
//  (2) Nanowires per half cave (N = MSPT spacer iterations). Deeper caves
//      save lithographic wall overhead but accumulate more doping steps
//      per region (nu grows with N), degrading yield: the model exposes an
//      optimal cave depth -- a trade-off the paper's fixed N = 20 hides.
#include <iostream>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;
  using codes::code_type;

  cli_parser cli("ext_design_scaling", "capacity and cave-depth sweeps");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const device::technology tech = device::paper_technology();

  bench::banner("Extension", "design scaling (capacity and cave depth)");

  // --- (1) capacity sweep at the paper's N = 20 --------------------------
  {
    text_table table({"D_RAW [kB]", "array side [nw]", "BGC-10 Y^2",
                      "bit area [nm^2]", "best design"});
    for (const std::size_t kb : {std::size_t{1}, std::size_t{4},
                                 std::size_t{16}, std::size_t{64},
                                 std::size_t{256}}) {
      crossbar::crossbar_spec spec;
      spec.raw_bits = kb * 1024 * 8;
      const core::sweep_engine engine(spec, tech);
      const auto results =
          engine.run(core::sweep_axes{.designs = core::yield_grid()}).entries;
      const auto& bgc =
          core::find_evaluation(results, code_type::balanced_gray, 10);
      const auto& best = core::best_bit_area(results);
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(spec.raw_bits))));
      table.add_row({format_count(kb), format_count(side),
                     format_percent(bgc.crosspoint_yield),
                     format_fixed(bgc.bit_area_nm2, 1), best.point.label()});
    }
    table.print(std::cout, "capacity sweep (N = 20):");
    std::cout << "the overheads amortize toward the yield-limited asymptote "
                 "P_N^2 / Y^2 ~ 112 nm^2; the optimum stays BGC-10.\n\n";
  }

  // --- (2) cave-depth sweep at the paper's 16 kB -------------------------
  {
    text_table table({"N per half cave", "caves", "BGC-10 Y", "BGC-10 Y^2",
                      "bit area [nm^2]"});
    double best_area = 1e18;
    std::size_t best_n = 0;
    // One 16 kB engine; the cave depth is the grid's nanowire axis.
    const core::sweep_engine engine(crossbar::crossbar_spec{}, tech);
    const core::sweep_engine_report report = engine.run(core::sweep_axes{
        .designs = {{code_type::balanced_gray, 2, 10}},
        .nanowires = {8, 12, 16, 20, 28, 40, 56}});
    for (const core::sweep_engine_entry& entry : report.entries) {
      const std::size_t n = entry.request.nanowires;
      const core::design_evaluation& e = entry.evaluation;
      const auto caves = (static_cast<std::size_t>(std::ceil(std::sqrt(
                              static_cast<double>(report.raw_bits)))) +
                          2 * n - 1) /
                         (2 * n);
      table.add_row({format_count(n), format_count(caves),
                     format_percent(e.nanowire_yield),
                     format_percent(e.crosspoint_yield),
                     format_fixed(e.bit_area_nm2, 1)});
      if (e.bit_area_nm2 < best_area) {
        best_area = e.bit_area_nm2;
        best_n = n;
      }
    }
    table.print(std::cout, "cave-depth sweep (16 kB, BGC-10):");
    std::cout << "optimal cave depth N = " << best_n
              << ": shallower caves waste wall area, deeper caves "
                 "accumulate doping variability (nu grows with N).\n";
  }
  return 0;
}
