// Reproduces Fig. 7: crossbar yield (percentage of addressable crosspoints,
// i.e. Y^2) vs binary code length, for TC vs BGC and HC vs AHC, on the
// 16 kB memory platform of Sec. 6.1.
//
// Paper shape: yield rises with code length and saturates (around M = 10
// for the tree family, M = 6 for hot codes); TC gains ~40% from M = 6 to
// 10; AHC gains ~40% from 4 to 8; BGC beats TC by ~42% at M = 8; AHC
// beats HC by ~19% at M = 8. Each point also carries an operational
// Monte-Carlo cross-check (real decode on fabricated-by-simulation caves).
#include <iostream>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;
  using codes::code_type;

  cli_parser cli("fig7_yield", "Fig. 7 -- crossbar yield vs code length");
  cli.add_int("trials", 120, "Monte-Carlo trials per design point (0 = off)");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_int("seed", 2009, "Monte-Carlo seed");
  cli.add_string("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 0;

  crossbar::crossbar_spec spec;
  spec.nanowires_per_half_cave =
      static_cast<std::size_t>(cli.get_int("nanowires"));
  const core::sweep_engine engine(spec, device::paper_technology());
  core::sweep_engine_options options;
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  bench::banner("Figure 7", "crossbar yield (addressable crosspoints) vs "
                            "code length");
  std::cout << "platform: " << spec.raw_bits << " raw crosspoints, N = "
            << spec.nanowires_per_half_cave << ", sigma_T = 50 mV\n\n";

  const auto results =
      engine
          .run(core::sweep_axes{
                   .designs = core::fig7_grid(),
                   .mc_trials =
                       static_cast<std::size_t>(cli.get_int("trials"))},
               options)
          .entries;

  text_table table({"code", "M", "Omega", "groups", "E[discard]",
                    "Y (nanowire)", "Y^2 (crosspoint)", "MC Y (operational)"});
  auto csv = bench::open_csv(
      cli.get_string("csv"),
      {"code", "M", "omega", "nanowire_yield", "crosspoint_yield", "mc_yield"});
  for (const core::sweep_engine_entry& entry : results) {
    const core::design_evaluation& e = entry.evaluation;
    table.add_row(
        {codes::code_type_name(e.point.type), format_count(e.point.length),
         format_count(e.code_space), format_count(e.contact_groups),
         format_fixed(e.expected_discarded, 1),
         format_percent(e.nanowire_yield), format_percent(e.crosspoint_yield),
         e.has_monte_carlo
             ? format_percent(e.mc_nanowire_yield) + " [" +
                   format_percent(e.mc_ci_low) + ", " +
                   format_percent(e.mc_ci_high) + "]"
             : "-"});
    if (csv) {
      csv->add_row({codes::code_type_name(e.point.type),
                    std::to_string(e.point.length),
                    std::to_string(e.code_space),
                    format_fixed(e.nanowire_yield, 4),
                    format_fixed(e.crosspoint_yield, 4),
                    format_fixed(e.mc_nanowire_yield, 4)});
    }
  }
  table.print(std::cout);

  const auto& get = [&results](code_type t, std::size_t m) -> const auto& {
    return core::find_evaluation(results, t, m);
  };
  const double tc_gain =
      100.0 * (get(code_type::tree, 10).crosspoint_yield /
                   get(code_type::tree, 6).crosspoint_yield -
               1.0);
  const double ahc_gain =
      100.0 * (get(code_type::arranged_hot, 8).crosspoint_yield /
                   get(code_type::arranged_hot, 4).crosspoint_yield -
               1.0);
  const double bgc_vs_tc =
      100.0 * (get(code_type::balanced_gray, 8).crosspoint_yield /
                   get(code_type::tree, 8).crosspoint_yield -
               1.0);
  const double ahc_vs_hc =
      100.0 * (get(code_type::arranged_hot, 8).crosspoint_yield /
                   get(code_type::hot, 8).crosspoint_yield -
               1.0);

  std::cout << "\npaper-vs-measured (relative yield gains, %):\n"
            << "  TC length 6 -> 10:  "
            << bench::versus(tc_gain, core::paper_claims::tree_6_to_10_gain_percent)
            << "\n  AHC length 4 -> 8:  "
            << bench::versus(ahc_gain, core::paper_claims::ahc_4_to_8_gain_percent)
            << "\n  BGC vs TC at M = 8: "
            << bench::versus(bgc_vs_tc,
                             core::paper_claims::bgc_vs_tree_at_8_percent)
            << "\n  AHC vs HC at M = 8: "
            << bench::versus(ahc_vs_hc,
                             core::paper_claims::ahc_vs_hot_at_8_percent)
            << "\n";
  return 0;
}
