// Ablation A7 (extension): dose quantization / mask sharing. Collapsing
// nearby implant doses onto shared masks reduces the lithography count
// below the paper's Phi at the cost of deterministic V_T error; this sweep
// shows how far the trade can be pushed before yield notices.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "codes/factory.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "fab/dose_quantizer.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("ablation_quantization",
                 "A7 -- mask sharing vs margin (extension)");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const device::technology tech = device::paper_technology();
  // Quaternary tree code: four levels pack the dose menu densest, so it
  // has the most mask sharing to gain.
  const decoder::decoder_design design(
      codes::make_code(codes::code_type::tree, 4, 4), 12, tech);

  bench::banner("Ablation A7", "dose quantization (mask sharing)");
  std::cout << "decoder: TC4-4, N = 12, exact Phi = "
            << design.fabrication_complexity() << "\n\n";

  // Yield with a deterministic per-region offset: the window shifts.
  const auto yield_with_errors = [&design](const matrix<double>& vt_error) {
    const double window = design.levels().window_half_width();
    const double sigma_vt = design.tech().sigma_vt;
    double sum = 0.0;
    for (std::size_t i = 0; i < design.nanowire_count(); ++i) {
      double p = 1.0;
      for (std::size_t j = 0; j < design.region_count(); ++j) {
        const double sigma =
            sigma_vt *
            std::sqrt(static_cast<double>(design.dose_counts()(i, j)));
        const codes::digit value = design.pattern()(i, j);
        const double lo = value == 0 ? -1e9 : -window;
        p *= gaussian_window_probability(vt_error(i, j), sigma, lo, window);
      }
      sum += p;
    }
    return sum / static_cast<double>(design.nanowire_count());
  };

  text_table table({"dose tolerance", "litho steps", "saved",
                    "worst V_T error [mV]", "half-cave yield"});
  for (const double tol : {0.0, 0.10, 0.25, 0.40, 0.60, 0.80}) {
    const fab::quantization_result q = fab::quantize_doses(design, tol);
    table.add_row(
        {format_percent(tol, 0), format_count(q.quantized_steps),
         format_count(q.original_steps - q.quantized_steps),
         format_fixed(q.worst_vt_error * 1e3, 1),
         format_percent(yield_with_errors(q.vt_error))});
  }
  table.print(std::cout);
  std::cout << "\nconclusion (a negative result worth having): the nonlinear "
               "V_T->doping map spreads the dose menu roughly "
               "geometrically, so realistic implanter tolerances (< 25%) "
               "merge nothing -- Phi is a robust cost metric, exactly as "
               "the paper assumes. Sharing only appears at absurd "
               "tolerances and immediately costs hundreds of millivolts "
               "of margin.\n";
  return 0;
}
