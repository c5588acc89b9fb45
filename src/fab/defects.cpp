#include "fab/defects.h"

namespace nwdec::fab {

void defect_params::validate() const {
  NWDEC_EXPECTS(broken_probability >= 0.0 && broken_probability <= 1.0,
                "broken probability must be in [0, 1]");
  NWDEC_EXPECTS(bridge_probability >= 0.0 && bridge_probability <= 1.0,
                "bridge probability must be in [0, 1]");
}

bool defect_map::disables(std::size_t nanowire) const {
  NWDEC_EXPECTS(nanowire < broken.size(), "nanowire index out of range");
  if (broken[nanowire]) return true;
  if (nanowire < bridged_to_next.size() && bridged_to_next[nanowire]) {
    return true;
  }
  if (nanowire > 0 && bridged_to_next[nanowire - 1]) return true;
  return false;
}

std::size_t defect_map::usable_count() const {
  std::size_t usable = 0;
  for (std::size_t i = 0; i < broken.size(); ++i) {
    if (!disables(i)) ++usable;
  }
  return usable;
}

defect_map sample_defects(std::size_t nanowires, const defect_params& params,
                          rng& random) {
  defect_map map;
  sample_defects_into(nanowires, params, random, map);
  return map;
}

void defect_disables_from_uniforms(std::size_t nanowires,
                                   const defect_params& params,
                                   const double* uniforms,
                                   std::uint8_t* disabled) {
  NWDEC_EXPECTS(nanowires >= 1, "need at least one nanowire");
  // bernoulli(p) = canonical < p; broken draws occupy uniforms[0..N), the
  // bridge draws uniforms[N..2N-1). disables(i) = broken[i] or a bridge on
  // either side; `prev` carries bridge i-1 so the loop stays branch-free.
  const double broken_p = params.broken_probability;
  const double bridge_p = params.bridge_probability;
  const double* bridge = uniforms + nanowires;
  std::uint8_t prev = 0;
  for (std::size_t i = 0; i + 1 < nanowires; ++i) {
    const std::uint8_t broken = uniforms[i] < broken_p ? 1 : 0;
    const std::uint8_t next = bridge[i] < bridge_p ? 1 : 0;
    disabled[i] = broken | next | prev;
    prev = next;
  }
  const std::uint8_t last_broken =
      uniforms[nanowires - 1] < broken_p ? 1 : 0;
  disabled[nanowires - 1] = last_broken | prev;
}

}  // namespace nwdec::fab
