// Addressability-limit scan (in the spirit of Chee & Ling, "Limit on the
// Addressability of Fault-Tolerant Nanowire Decoders"): how far can one
// half cave scale before decode yield collapses?
//
// The scan takes the paper's best binary designs (BGC-10 and AHC-10,
// Fig. 8) and grows the half-cave size N far beyond the paper's N = 20.
// Per-nanowire addressability is N-independent, but every extra contact
// group adds a boundary band that discards ~1.4 nanowires in expectation,
// so yield decays with N -- the practical addressability limit of the
// platform. The whole (design x N) grid runs through core::sweep_engine
// (one cached code/design/context per (design, N), Monte-Carlo sharded
// across the thread budget) and is emitted as a JSON artifact.
//
//   $ ./example_addressability_scan
//   $ ./example_addressability_scan --max-n 1280 --trials 500 --json scan.json
#include <fstream>
#include <iostream>

#include "core/sweep_engine.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("addressability_scan",
                 "yield vs half-cave size N for the best BGC/AHC designs");
  cli.add_int("max-n", 640, "largest half-cave size to scan (doubling from 20)");
  cli.add_int("trials", 300, "Monte-Carlo trials per point");
  cli.add_int("threads", 0, "worker threads (0 = hardware)");
  cli.add_int("seed", 2009, "base seed");
  cli.add_string("json", "SCAN_addressability.json", "JSON artifact ('' = off)");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  core::sweep_axes axes;
  axes.designs = {{codes::code_type::balanced_gray, 2, 10},
                  {codes::code_type::arranged_hot, 2, 10}};
  const std::size_t max_n =
      static_cast<std::size_t>(cli.get_int("max-n"));
  for (std::size_t n = 20; n <= max_n; n *= 2) axes.nanowires.push_back(n);
  axes.mc_trials = static_cast<std::size_t>(cli.get_int("trials"));

  const core::sweep_engine engine(crossbar::crossbar_spec{},
                                  device::paper_technology());
  core::sweep_engine_options options;
  options.threads = static_cast<std::size_t>(cli.get_int("threads"));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::sweep_engine_report report = engine.run(axes, options);

  std::cout << "addressability limit scan (boundary losses accumulate with "
               "N):\n\n";
  text_table table({"design", "N", "groups", "E[discarded]", "analytic Y",
                    "MC Y (op.)", "MC 95% CI"});
  for (const core::sweep_engine_entry& entry : report.entries) {
    const core::design_evaluation& e = entry.evaluation;
    table.add_row({entry.request.design.label(),
                   format_count(entry.request.nanowires),
                   format_count(e.contact_groups),
                   format_fixed(e.expected_discarded, 1),
                   format_percent(e.nanowire_yield),
                   e.has_monte_carlo ? format_percent(e.mc_nanowire_yield)
                                     : "-",
                   e.has_monte_carlo ? "[" + format_percent(e.mc_ci_low) +
                                           ", " +
                                           format_percent(e.mc_ci_high) + "]"
                                     : "-"});
  }
  table.print(std::cout);
  std::cout << "\nconclusion: yield decays with N through contact-boundary "
               "losses alone;\nthe half cave stops paying for itself once "
               "the discard share dominates.\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << core::to_json(report);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
