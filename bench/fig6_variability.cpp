// Reproduces Fig. 6: the variability surfaces sqrt(Sigma / sigma_T^2) over
// (nanowire, digit) for binary TC / GC / BGC at code lengths 8 and 10,
// N = 20 nanowires per half cave.
//
// The paper's 3-D plots become per-digit column profiles here (the full
// surface goes to CSV with --csv): the tree code piles variability onto
// its fast-toggling digits, the Gray code lowers every digit, and the
// balanced Gray code flattens the profile; the average drops ~18%.
#include <iostream>

#include "bench_util.h"
#include "core/experiments.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("fig6_variability",
                 "Fig. 6 -- decoder variability surfaces per code type");
  cli.add_int("nanowires", 20, "nanowires per half cave (N)");
  cli.add_string("csv", "", "optional CSV output path (full surfaces)");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const std::size_t n = static_cast<std::size_t>(cli.get_int("nanowires"));
  bench::banner("Figure 6", "variability matrix sqrt(Sigma/sigma^2)");
  std::cout << "N = " << n << " nanowires/half cave, binary codes\n\n";

  const std::vector<core::fig6_surface> surfaces = core::run_fig6(n);

  auto csv = bench::open_csv(cli.get_string("csv"),
                             {"code", "L", "nanowire", "digit", "sqrt_nu"});
  double tc_avg[2] = {0.0, 0.0};
  double tc_sqrt[2] = {0.0, 0.0};
  double gc_sqrt[2] = {0.0, 0.0};
  double bgc_sqrt[2] = {0.0, 0.0};

  for (const core::fig6_surface& s : surfaces) {
    const std::string name = codes::code_type_name(s.type);
    std::cout << name << " (L = " << s.length << "): average variability "
              << format_fixed(s.average_variability, 2)
              << " sigma^2, worst region sqrt(nu) = "
              << format_fixed(s.worst_digit_level, 2) << "\n";

    // Column profile: mean sqrt(nu) per digit (the silhouette of the
    // paper's surface when viewed along the nanowire axis).
    std::cout << "  digit profile:";
    for (std::size_t j = 0; j < s.sqrt_normalized.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < s.sqrt_normalized.rows(); ++i) {
        sum += s.sqrt_normalized(i, j);
      }
      std::cout << ' '
                << format_fixed(sum / static_cast<double>(
                                          s.sqrt_normalized.rows()),
                                2);
    }
    std::cout << "\n";

    if (csv) {
      for (std::size_t i = 0; i < s.sqrt_normalized.rows(); ++i) {
        for (std::size_t j = 0; j < s.sqrt_normalized.cols(); ++j) {
          csv->add_row({name, std::to_string(s.length), std::to_string(i + 1),
                        std::to_string(j + 1),
                        format_fixed(s.sqrt_normalized(i, j), 4)});
        }
      }
    }

    const std::size_t block = s.length == 8 ? 0 : 1;
    if (s.type == codes::code_type::tree) {
      tc_avg[block] = s.average_variability;
      tc_sqrt[block] = s.average_sqrt_level;
    }
    if (s.type == codes::code_type::gray) gc_sqrt[block] = s.average_sqrt_level;
    if (s.type == codes::code_type::balanced_gray)
      bgc_sqrt[block] = s.average_sqrt_level;
  }

  // The paper reports the reduction of the plotted level, i.e. the mean of
  // sqrt(Sigma)/sigma_T over the surface (standard-deviation units).
  std::cout << "\npaper-vs-measured (mean surface level reduction vs TC):\n";
  for (const std::size_t block : {std::size_t{0}, std::size_t{1}}) {
    const std::size_t length = block == 0 ? 8 : 10;
    const double gc_red = 100.0 * (1.0 - gc_sqrt[block] / tc_sqrt[block]);
    const double bgc_red = 100.0 * (1.0 - bgc_sqrt[block] / tc_sqrt[block]);
    std::cout << "  L = " << length << ": GC "
              << bench::versus(gc_red,
                               core::paper_claims::variability_reduction_percent)
              << ", BGC "
              << bench::versus(bgc_red,
                               core::paper_claims::variability_reduction_percent)
              << "\n";
  }
  std::cout << "  (longer codes reduce the average further: TC "
            << format_fixed(tc_avg[0], 2) << " -> "
            << format_fixed(tc_avg[1], 2) << " sigma^2)\n";
  return 0;
}
