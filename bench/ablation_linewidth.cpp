// Ablation A6 (extension): spacer line-width variation. The MSPT builds
// each nanowire from one conformal deposition + etch, so thickness noise
// translates into width noise, broken wires, oxide bridges, V_T shifts and
// pitch wander. This study sweeps the deposition sigma and closes the loop
// into the yield simulator, quantifying how much geometric process noise
// the paper's "yield close to unit" arrays can absorb.
#include <iostream>

#include "bench_util.h"
#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "fab/geometry_sim.h"
#include "mc_oracles.h"
#include "util/cli.h"
#include "yield/monte_carlo_yield.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("ablation_linewidth",
                 "A6 -- geometric line-width noise vs yield");
  cli.add_int("trials", 120, "Monte-Carlo trials per point");
  cli.add_int("geometry-trials", 400, "caves sampled for defect rates");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const device::technology tech = device::paper_technology();
  const std::size_t trials = static_cast<std::size_t>(cli.get_int("trials"));
  const std::size_t geometry_trials =
      static_cast<std::size_t>(cli.get_int("geometry-trials"));

  bench::banner("Ablation A6", "spacer line-width variation (extension)");

  const codes::code code = codes::make_code(codes::code_type::balanced_gray,
                                            2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);

  text_table table({"dep. sigma [nm]", "pitch rms [nm]", "broken p",
                    "bridge p", "extra V_T sigma [mV]", "BGC-8 MC yield"});
  for (const double sigma_nm : {0.1, 0.3, 0.6, 1.0, 1.5}) {
    fab::spacer_geometry_params params;
    params.deposition_sigma_nm = sigma_nm;

    rng random(17);
    const fab::defect_params rates =
        fab::estimate_defect_rates(params, 20, geometry_trials, random);
    const double vt_sigma =
        fab::vt_offset_sigma(params, 20, geometry_trials, random);
    rng geo_stream(99);
    const fab::realized_geometry sample =
        fab::simulate_spacer_geometry(20, params, geo_stream);

    yield::mc_options options;
    options.mode = yield::mc_mode::window;
    options.trials = trials;
    options.defects = rates;
    rng mc_stream(4);
    const yield::mc_yield_result mc =
        testkit::monte_carlo_yield(design, plan, options, mc_stream);

    table.add_row({format_fixed(sigma_nm, 1),
                   format_fixed(sample.pitch_error_rms_nm(10.0), 2),
                   format_fixed(rates.broken_probability, 4),
                   format_fixed(rates.bridge_probability, 4),
                   format_fixed(vt_sigma * 1e3, 1),
                   format_percent(mc.nanowire_yield)});
  }
  table.print(std::cout);
  std::cout << "\nconclusion: below ~0.5 nm deposition sigma the structural "
               "channel is negligible against sigma_T = 50 mV (supporting "
               "the paper's near-unity array-yield assumption); beyond "
               "~1 nm broken/bridged wires take over.\n";
  return 0;
}
