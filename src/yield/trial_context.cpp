#include "yield/trial_context.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "decoder/addressing.h"
#include "util/error.h"

namespace nwdec::yield {

trial_context::trial_context(const decoder::decoder_design& design,
                             const crossbar::contact_group_plan& plan)
    : design_(design),
      plan_(plan),
      nanowires_(design.nanowire_count()),
      regions_(design.region_count()),
      window_half_width_(design.levels().window_half_width()) {
  NWDEC_EXPECTS(plan.nanowire_count == design.nanowire_count(),
                "plan and design must describe the same half cave");

  const matrix<codes::digit>& pattern = design_.pattern();
  const matrix<std::size_t>& dose_counts = design_.dose_counts();
  const device::vt_levels& levels = design_.levels();
  drive_table_.resize(nanowires_ * regions_);
  nominal_vt_.resize(nanowires_ * regions_);
  noise_scale_.resize(nanowires_ * regions_);
  window_low_guard_.resize(nanowires_ * regions_);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    const codes::digit* row = pattern.row_ptr(i);
    const std::size_t* nu_row = dose_counts.row_ptr(i);
    for (std::size_t j = 0; j < regions_; ++j) {
      nominal_vt_[i * regions_ + j] = levels.level(row[j]);
      drive_table_[i * regions_ + j] = levels.drive_voltage(row[j]);
      noise_scale_[i * regions_ + j] =
          std::sqrt(static_cast<double>(nu_row[j]));
      window_low_guard_[i * regions_ + j] =
          row[j] != 0 ? -window_half_width_
                      : -std::numeric_limits<double>::infinity();
    }
  }

  // The lane-mask verdicts ask "vt < drive level" once per level and read
  // a row's answer at its digit, which equals the scalar rule's
  // "drive > vt" only if the levels are finite and distinct -- strictly
  // increasing, as vt_levels places them.
  for (unsigned d = 0; d < levels.radix(); ++d) {
    drive_levels_.push_back(levels.drive_voltage(static_cast<codes::digit>(d)));
    NWDEC_ENSURES(std::isfinite(drive_levels_.back()) &&
                      (d == 0 || drive_levels_[d - 1] < drive_levels_[d]),
                  "drive levels must be finite and strictly increasing");
    level_magnitude_ =
        std::max(level_magnitude_, std::abs(drive_levels_.back()));
  }

  // Contact-group membership as one flat offsets+indices layout.
  // Double-contacted boundary nanowires still *conduct*, so they stay in
  // the member lists as potential impostors even when they are not counted
  // addressable themselves.
  discard_probability_.resize(nanowires_);
  group_of_.resize(nanowires_);
  std::vector<std::size_t> counts(plan.group_count, 0);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    discard_probability_[i] = plan.discard_probability(i);
    if (discard_probability_[i] > 0.0) at_risk_.push_back(i);
    group_of_[i] = plan.group_of(i);
    ++counts[group_of_[i]];
  }
  member_offsets_.assign(plan.group_count + 1, 0);
  for (std::size_t g = 0; g < plan.group_count; ++g) {
    member_offsets_[g + 1] = member_offsets_[g] + counts[g];
  }
  members_.resize(nanowires_);
  std::vector<std::size_t> cursor(member_offsets_.begin(),
                                  member_offsets_.end() - 1);
  for (std::size_t i = 0; i < nanowires_; ++i) {
    members_[cursor[group_of_[i]]++] = i;
  }
}

namespace {

// Half-width of the band around a threshold inside which a value realized
// as offset + scale * z from a certified deviate might fall on the other
// side of it with the exact deviate: the deviate's error at the largest
// |z| any polar deviate reaches (deviate_abs_bound), doubled to cover the
// product's and the sum's roundings, plus a few ulp of every magnitude in
// play (`magnitude` bounds |offset| and |threshold|).
double certify_tolerance(double scale, double magnitude) {
  return scale * (2.0 * deviate_rel_bound * deviate_abs_bound) +
         (magnitude + scale * deviate_abs_bound) * 0x1p-49;
}

}  // namespace

bool trial_context::window_ok(const double* vt_row, std::size_t row) const {
  const double* nominal_row = nominal_vt_.data() + row * regions_;
  const codes::digit* pattern_row = design_.pattern().row_ptr(row);
  for (std::size_t j = 0; j < regions_; ++j) {
    const double delta = vt_row[j] - nominal_row[j];
    // Digit-0 regions have no blocking duty: only the upper bound applies.
    if (delta >= window_half_width_) return false;
    if (pattern_row[j] != 0 && delta <= -window_half_width_) return false;
  }
  return true;
}

bool trial_context::operational_ok(const matrix<double>& realized_vt,
                                   std::size_t row) const {
  // Drive this nanowire's own address and require that it conducts while
  // every other nanowire reachable through the same contact group blocks.
  const double* drive = drive_table_.data() + row * regions_;
  if (!decoder::conducts(realized_vt.row_ptr(row), drive, regions_)) {
    return false;
  }
  const std::size_t group = group_of_[row];
  for (std::size_t k = member_offsets_[group]; k < member_offsets_[group + 1];
       ++k) {
    const std::size_t other = members_[k];
    if (other == row) continue;
    if (decoder::conducts(realized_vt.row_ptr(other), drive, regions_)) {
      return false;
    }
  }
  return true;
}

std::size_t trial_context::run_trial(rng& stream, trial_scratch& scratch,
                                     mc_mode mode, double sigma_vt,
                                     const fab::defect_params* defects) const {
  // Realize V_T in two flat passes: N*M standard normals, then a fused
  // nominal + sigma * sqrt(nu) * z transform in place (see header: exactly
  // the distribution the op-by-op process walk samples).
  if (scratch.realized_vt.rows() != nanowires_ ||
      scratch.realized_vt.cols() != regions_) {
    scratch.realized_vt.assign(nanowires_, regions_);
  }
  double* vt = scratch.realized_vt.row_ptr(0);
  const std::size_t cells = nanowires_ * regions_;
  stream.standard_normal_fill(vt, cells);
  for (std::size_t k = 0; k < cells; ++k) {
    vt[k] = nominal_vt_[k] + sigma_vt * noise_scale_[k] * vt[k];
  }
  if (defects != nullptr) {
    fab::sample_defects_into(nanowires_, *defects, stream, scratch.defects);
  }

  std::size_t good = 0;
  for (std::size_t i = 0; i < nanowires_; ++i) {
    // This die's contact edges clip this nanowire with the plan's
    // probability (misalignment is sampled per fabricated cave).
    if (discard_probability_[i] > 0.0 &&
        stream.bernoulli(discard_probability_[i])) {
      continue;
    }
    if (defects != nullptr && scratch.defects.disables(i)) continue;
    const bool ok = mode == mc_mode::window
                        ? window_ok(scratch.realized_vt.row_ptr(i), i)
                        : operational_ok(scratch.realized_vt, i);
    if (ok) ++good;
  }
  return good;
}

namespace {

// Calls visit(t) for every lane t whose bit is set in the lane mask.
template <typename Visit>
void for_each_lane(const std::uint64_t* mask, std::size_t words,
                   Visit&& visit) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      visit(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

void trial_context::run_trial_block(std::uint64_t run_key, std::uint64_t first,
                                    std::size_t count, trial_scratch& scratch,
                                    mc_mode mode, double sigma_vt,
                                    const fab::defect_params* defects,
                                    std::uint32_t* good) const {
  NWDEC_EXPECTS(count >= 1, "a trial block needs at least one trial");
  if (defects != nullptr) defects->validate();
  const std::size_t cells = nanowires_ * regions_;
  // Lane rows padded to 64-byte multiples so every region row of the slab
  // starts cache-line aligned; the kernels still sweep `count` lanes only.
  const std::size_t lane_stride = (count + 7) & ~std::size_t{7};
  const std::size_t words = (count + 63) / 64;
  const std::size_t defect_draws =
      defects != nullptr ? fab::defect_draw_count(nanowires_) : 0;
  const std::size_t tail_draws = defect_draws + at_risk_.size();

  const auto ensure = [](auto& buffer, std::size_t size) {
    if (buffer.size() < size) buffer.resize(size);
  };
  ensure(scratch.vt_lanes, cells * lane_stride);
  ensure(scratch.alive, nanowires_ * words);
  ensure(scratch.verdicts, nanowires_ * words);
  ensure(scratch.tail_uniforms, count * tail_draws);
  ensure(scratch.disabled, nanowires_);
  double* slab = scratch.vt_lanes.data();
  std::uint64_t* alive = scratch.alive.data();
  std::uint64_t* verdicts = scratch.verdicts.data();

  // Phase 1: every trial's deviates down its lane of the slab (cell k of
  // trial first + t at slab[k * lane_stride + t]), then its tail uniforms
  // -- the defect draws followed by one discard draw per at-risk
  // nanowire, the words the scalar path consumes one bernoulli at a time.
  standard_normal_block(run_key, first, count, cells, slab, lane_stride,
                        tail_draws, scratch.tail_uniforms.data(),
                        scratch.streams);

  // Phase 2: survival lane masks -- every lane alive, then each trial's
  // defect verdicts and discard draws clear its bit.
  for (std::size_t i = 0; i < nanowires_; ++i) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lanes = std::min<std::size_t>(64, count - 64 * w);
      alive[i * words + w] = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
    }
  }
  std::uint8_t* disabled = scratch.disabled.data();
  for (std::size_t t = 0; t < count; ++t) {
    const double* uniforms = scratch.tail_uniforms.data() + t * tail_draws;
    const std::uint64_t clear = ~(1ULL << (t % 64));
    std::uint64_t* lane_word = alive + t / 64;
    if (defects != nullptr) {
      fab::defect_disables_from_uniforms(nanowires_, *defects, uniforms,
                                         disabled);
      for (std::size_t i = 0; i < nanowires_; ++i) {
        if (disabled[i]) lane_word[i * words] &= clear;
      }
    }
    for (std::size_t k = 0; k < at_risk_.size(); ++k) {
      const std::size_t i = at_risk_[k];
      if (uniforms[defect_draws + k] < discard_probability_[i]) {
        lane_word[i * words] &= clear;
      }
    }
  }

  // Phase 3: realize V_T = nominal + sigma * sqrt(nu) * z -- the scalar
  // path's per-cell expression -- and decide every nanowire's verdict lane
  // masks.
  ensure(scratch.cell_scales, cells);
  double* scales = scratch.cell_scales.data();
  for (std::size_t k = 0; k < cells; ++k) {
    scales[k] = sigma_vt * noise_scale_[k];
  }
  // The certificate's fallback: trial first + t's exact deviates -- the
  // scalar path's draws -- down its slab column.
  ensure(scratch.uncertain, words);
  std::uint64_t* uncertain = scratch.uncertain.data();
  for (std::size_t w = 0; w < words; ++w) uncertain[w] = 0;
  const auto redraw_exact = [&](std::size_t t) {
    block_rng::from_counter(run_key, first + t)
        .standard_normal_fill(slab + t, cells, lane_stride);
    ++scratch.fallback_lanes;
  };
  if (mode == mc_mode::window) {
    // Realize in place; a lane whose |delta| lands within the tolerance of
    // the window half-width is uncertain.
    ensure(scratch.near, count);
    std::uint8_t* near = scratch.near.data();
    for (std::size_t t = 0; t < count; ++t) near[t] = 0;
    for (std::size_t k = 0; k < cells; ++k) {
      const double center = nominal_vt_[k];
      const double scale = scales[k];
      const double tolerance = certify_tolerance(
          scale, std::abs(center) + window_half_width_);
      const double inner = window_half_width_ - tolerance;
      const double outer = window_half_width_ + tolerance;
      double* lane = slab + k * lane_stride;
      for (std::size_t t = 0; t < count; ++t) {
        const double vt = center + scale * lane[t];
        const double delta = std::abs(vt - center);
        lane[t] = vt;
        near[t] |= static_cast<std::uint8_t>(delta >= inner && delta <= outer);
      }
    }
    for (std::size_t t = 0; t < count; ++t) {
      uncertain[t / 64] |= static_cast<std::uint64_t>(near[t]) << (t % 64);
    }
    // Uncertain lanes are redrawn exactly and realized the same way before
    // the margin sweep reads them.
    for_each_lane(uncertain, words, [&](std::size_t t) {
      redraw_exact(t);
      for (std::size_t k = 0; k < cells; ++k) {
        double& vt = slab[k * lane_stride + t];
        vt = nominal_vt_[k] + scales[k] * vt;
      }
    });
    ensure(scratch.margins, 2 * lane_stride);
    double* margin = scratch.margins.data();
    double* verdict = margin + lane_stride;
    for (std::size_t i = 0; i < nanowires_; ++i) {
      decoder::window_margin_block(
          slab + i * regions_ * lane_stride, lane_stride, count,
          nominal_vt_.data() + i * regions_,
          window_low_guard_.data() + i * regions_, window_half_width_,
          regions_, margin, verdict);
      std::uint64_t* row = verdicts + i * words;
      for (std::size_t w = 0; w < words; ++w) row[w] = 0;
      for (std::size_t t = 0; t < count; ++t) {
        row[t / 64] |= static_cast<std::uint64_t>(verdict[t] > 0.0)
                       << (t % 64);
      }
    }
  } else {
    // The compare pass realizes each lane row on the fly, so the slab is
    // read once and V_T is never stored.
    const std::size_t levels = drive_levels_.size();
    ensure(scratch.below, cells * levels * words);
    ensure(scratch.tolerances, cells);
    double* tolerances = scratch.tolerances.data();
    for (std::size_t k = 0; k < cells; ++k) {
      tolerances[k] = certify_tolerance(
          scales[k], std::abs(nominal_vt_[k]) + level_magnitude_);
    }
    std::uint64_t* below = scratch.below.data();
    decoder::below_level_masks(slab, lane_stride, cells, count,
                               nominal_vt_.data(), scales,
                               drive_levels_.data(), levels, below,
                               tolerances, uncertain);
    // Uncertain lanes: redraw the trial's exact deviates and redo that
    // lane's masks from them.
    for_each_lane(uncertain, words, [&](std::size_t t) {
      redraw_exact(t);
      ensure(scratch.exact_below, cells * levels);
      std::uint64_t* exact = scratch.exact_below.data();
      decoder::below_level_masks(slab + t, lane_stride, cells, 1,
                                 nominal_vt_.data(), scales,
                                 drive_levels_.data(), levels, exact);
      const std::uint64_t bit = 1ULL << (t % 64);
      for (std::size_t r = 0; r < cells * levels; ++r) {
        std::uint64_t& word = below[r * words + t / 64];
        word = (word & ~bit) | (exact[r] != 0 ? bit : 0);
      }
    });
    // The groups partition members_, so group g's verdict rows land at
    // their member positions; counting below maps them back to nanowires.
    const std::size_t groups = member_offsets_.size() - 1;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t begin = member_offsets_[g];
      decoder::addressable_group_masks(
          below, design_.pattern().row_ptr(0), regions_,
          levels, words, members_.data() + begin,
          member_offsets_[g + 1] - begin, verdicts + begin * words);
    }
  }

  // Count each trial's surviving addressable nanowires from the set bits.
  for (std::size_t t = 0; t < count; ++t) good[t] = 0;
  for (std::size_t k = 0; k < nanowires_; ++k) {
    const std::size_t i = mode == mc_mode::window ? k : members_[k];
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = verdicts[k * words + w] & alive[i * words + w];
      while (bits != 0) {
        ++good[64 * w + static_cast<std::size_t>(std::countr_zero(bits))];
        bits &= bits - 1;
      }
    }
  }
}

}  // namespace nwdec::yield
