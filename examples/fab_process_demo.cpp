// MSPT process walk-through: derives the decoder-aware fabrication flow
// (Fig. 4 of the paper) for a small half cave, lists every
// lithography/implantation pass, then fabricates the cave once in
// simulation and reports how the realized threshold voltages landed in
// their addressability windows.
//
//   $ ./fab_process_demo --code GC --nanowires 6
#include <iomanip>
#include <iostream>

#include "codes/factory.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "fab/process_sim.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("fab_process_demo", "decoder-aware MSPT flow walk-through");
  cli.add_string("code", "GC", "code type: TC, GC, BGC, HC or AHC");
  cli.add_int("nanowires", 6, "nanowires (spacers) per half cave");
  cli.add_int("length", 4, "full code length M");
  cli.add_int("seed", 1, "fabrication seed");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const codes::code code = codes::make_code(
      codes::parse_code_type(cli.get_string("code")), 2,
      static_cast<std::size_t>(cli.get_int("length")));
  const device::technology tech = device::paper_technology();
  const decoder::decoder_design design(
      code, static_cast<std::size_t>(cli.get_int("nanowires")), tech);

  const fab::process_simulator sim(design);
  const fab::process_flow& flow = sim.flow();

  std::cout << "decoder-aware MSPT flow for " << flow.spacer_count
            << " spacers x " << flow.region_count << " regions ("
            << codes::code_type_name(code.type) << "):\n\n";

  text_table steps({"after spacer", "dose [cm^-3]", "species", "regions"});
  for (const fab::implant_op& op : flow.ops) {
    std::string regions;
    for (const std::size_t j : op.regions) {
      if (!regions.empty()) regions += ",";
      regions += std::to_string(j);
    }
    std::ostringstream dose;
    dose << std::scientific << std::setprecision(2) << std::abs(op.dose);
    steps.add_row({format_count(op.after_spacer + 1), dose.str(),
                   op.dose > 0 ? "p-type" : "n-type", regions});
  }
  steps.print(std::cout);
  std::cout << "total: " << flow.lithography_step_count()
            << " lithography/implant passes (= Phi)\n\n";

  // One fabrication run: did each region land in its window?
  rng random(static_cast<std::uint64_t>(cli.get_int("seed")));
  const fab::fab_result result = sim.run(random);
  const double window = design.levels().window_half_width();

  std::cout << "one fabricated cave (sigma_T = 50 mV); '.' in-window, 'X' "
               "out:\n";
  for (std::size_t i = 0; i < flow.spacer_count; ++i) {
    std::cout << "  nanowire " << i << " [" << std::setw(2)
              << design.pattern().row(i).size() << " regions] ";
    for (std::size_t j = 0; j < flow.region_count; ++j) {
      const double nominal = design.levels().level(design.pattern()(i, j));
      const double delta = result.realized_vt(i, j) - nominal;
      const bool ok =
          delta < window && (design.pattern()(i, j) == 0 || delta > -window);
      std::cout << (ok ? '.' : 'X');
    }
    std::cout << '\n';
  }
  return 0;
}
