// Structural fabrication defects (extension study).
//
// The paper neglects broken nanowires ("yield close to unit" for the MSPT
// arrays) and bridged neighbors, and simulates only decoder variability.
// This module injects those neglected mechanisms so the ablation benches
// can check how far that assumption carries: a broken nanowire answers no
// address; a bridged pair conducts together and is discarded like a
// double-contacted boundary nanowire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace nwdec::fab {

/// Defect injection rates per nanowire.
struct defect_params {
  /// Probability that a nanowire is mechanically broken / discontinuous.
  double broken_probability = 0.0;
  /// Probability that a nanowire is shorted to its next neighbor (spacer
  /// oxide failure).
  double bridge_probability = 0.0;

  /// Throws invalid_argument_error when a probability is outside [0, 1].
  void validate() const;
};

/// Sampled structural defects of one half cave.
struct defect_map {
  std::vector<bool> broken;          ///< per nanowire
  std::vector<bool> bridged_to_next; ///< entry i: short between i and i+1

  /// True when nanowire i cannot be used (broken, or in a bridged pair).
  bool disables(std::size_t nanowire) const;
  /// Number of usable nanowires.
  std::size_t usable_count() const;
};

/// Samples a defect map for `nanowires` nanowires.
defect_map sample_defects(std::size_t nanowires, const defect_params& params,
                          rng& random);

/// Buffer-reuse form of sample_defects: writes into `out`, recycling its
/// vectors (no heap allocation once `out` has reached full size). Identical
/// draw order and results to sample_defects.
///
/// Templated over the generator so the scalar engine (rng) and the blocked
/// trial kernel (block_rng, whose bernoulli replicates rng's draw for draw)
/// share one definition of the defect draw order -- which is a stream
/// contract: every probability is drawn even at rate 0 (`broken` for all
/// nanowires in index order, then `bridged_to_next` for all gaps), so the
/// deviates consumed never depend on the rates.
template <class Rng>
void sample_defects_into(std::size_t nanowires, const defect_params& params,
                         Rng& random, defect_map& out) {
  NWDEC_EXPECTS(nanowires >= 1, "need at least one nanowire");
  params.validate();
  out.broken.assign(nanowires, false);
  out.bridged_to_next.assign(nanowires - 1, false);
  for (std::size_t i = 0; i < nanowires; ++i) {
    out.broken[i] = random.bernoulli(params.broken_probability);
  }
  for (std::size_t i = 0; i + 1 < nanowires; ++i) {
    out.bridged_to_next[i] = random.bernoulli(params.bridge_probability);
  }
}

/// Number of uniforms one defect map consumes: `nanowires` broken draws
/// plus `nanowires - 1` bridge draws, in that order -- the stream contract
/// sample_defects_into pins.
inline std::size_t defect_draw_count(std::size_t nanowires) {
  return 2 * nanowires - 1;
}

/// Branch-free SoA form of the defect verdict: given the
/// defect_draw_count(nanowires) uniforms the scalar path would have drawn
/// (broken draws first, then bridge draws; bernoulli(p) = uniform < p),
/// writes disabled[i] = 1 exactly where defect_map::disables(i) would be
/// true. No defect_map is materialized -- the blocked trial kernel only
/// ever asks the disables() question.
void defect_disables_from_uniforms(std::size_t nanowires,
                                   const defect_params& params,
                                   const double* uniforms,
                                   std::uint8_t* disabled);

}  // namespace nwdec::fab
