// Ablation A4: contact-geometry sweep. Small code spaces need several
// contact groups per half cave; every internal group edge risks
// double-contacted nanowires. Sweeping the boundary-band width shows the
// short-code designs (HC-4, TC-6) absorb almost all of the damage, which
// is exactly the mechanism behind the rising left flank of Fig. 7.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;
  using codes::code_type;

  cli_parser cli("ablation_geometry",
                 "A4 -- yield vs contact-boundary uncertainty");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  bench::banner("Ablation A4", "boundary-band width vs short/long codes");

  text_table table({"w_b [nm]", "HC-4 (4 groups)", "TC-6 (3 groups)",
                    "TC-10 (1 group)", "BGC-10 (1 group)"});
  for (const double band : {0.0, 6.0, 10.0, 14.0, 20.0, 30.0}) {
    device::technology tech = device::paper_technology();
    tech.boundary_band_nm = band;
    const core::sweep_engine engine(crossbar::crossbar_spec{}, tech);
    const auto results =
        engine
            .run(core::sweep_axes{.designs = {{code_type::hot, 2, 4},
                                              {code_type::tree, 2, 6},
                                              {code_type::tree, 2, 10},
                                              {code_type::balanced_gray, 2,
                                               10}}})
            .entries;

    std::vector<std::string> row = {format_fixed(band, 0)};
    for (const core::sweep_engine_entry& entry : results) {
      row.push_back(format_percent(entry.evaluation.crosspoint_yield));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nconclusion: single-group designs (Omega >= N) are immune "
               "to contact misalignment; multi-group short codes pay for "
               "every internal edge.\n";
  return 0;
}
