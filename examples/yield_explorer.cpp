// Design-space exploration: evaluates every (code type, length) candidate
// on a configurable platform and reports the ranking -- the workflow a
// memory designer would run before committing a decoder layout.
//
//   $ ./yield_explorer
//   $ ./yield_explorer --sigma-mv 65 --nanowires 24 --trials 100
#include <iostream>

#include "core/experiments.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("yield_explorer", "decoder design-space exploration");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_double("sigma-mv", 50.0, "V_T variability per dose [mV]");
  cli.add_double("window", 0.5, "addressability window fraction of spacing");
  cli.add_int("raw-kb", 16, "raw crossbar capacity [kB]");
  cli.add_int("trials", 0, "Monte-Carlo trials per point (0 = analytic only)");
  cli.add_int("threads", 0, "sweep-engine worker threads (0 = hardware)");
  cli.add_int("seed", 1, "Monte-Carlo base seed");
  if (!cli.parse(argc, argv)) return 0;

  device::technology tech = device::paper_technology();
  tech.sigma_vt = cli.get_double("sigma-mv") * 1e-3;
  tech.window_fraction = cli.get_double("window");

  crossbar::crossbar_spec spec;
  spec.nanowires_per_half_cave =
      static_cast<std::size_t>(cli.get_int("nanowires"));
  spec.raw_bits = static_cast<std::size_t>(cli.get_int("raw-kb")) * 1024 * 8;

  // The grid runs through core::sweep_engine: design points sharded across
  // workers, one cached design/plan/context per point family.
  const core::sweep_engine engine(spec, tech);
  core::sweep_engine_options options;
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.threads = static_cast<std::size_t>(cli.get_int("threads"));
  const auto results =
      engine
          .run(core::sweep_axes{
                   .designs = core::yield_grid(),
                   .mc_trials =
                       static_cast<std::size_t>(cli.get_int("trials"))},
               options)
          .entries;

  std::cout << "design space on a " << cli.get_int("raw-kb")
            << " kB crossbar, N = " << spec.nanowires_per_half_cave
            << ", sigma_T = " << cli.get_double("sigma-mv") << " mV:\n\n";

  text_table table({"design", "Omega", "Phi", "Y^2", "eff. capacity [kB]",
                    "bit area [nm^2]"});
  for (const core::sweep_engine_entry& entry : results) {
    const core::design_evaluation& e = entry.evaluation;
    table.add_row({e.point.label(), format_count(e.code_space),
                   format_count(e.fabrication_steps),
                   format_percent(e.crosspoint_yield),
                   format_fixed(e.effective_bits / 8192.0, 1),
                   format_fixed(e.bit_area_nm2, 1)});
  }
  table.print(std::cout);

  const core::design_evaluation& best = core::best_bit_area(results);
  std::cout << "\nrecommended decoder: " << best.point.label() << " ("
            << format_fixed(best.bit_area_nm2, 1) << " nm^2/bit, "
            << format_percent(best.crosspoint_yield)
            << " of crosspoints usable, " << best.fabrication_steps
            << " extra lithography steps)\n";
  return 0;
}
