// Per-design invariants and per-thread scratch for the Monte-Carlo yield
// engine.
//
// One Monte-Carlo trial fabricates a virtual half cave and asks, nanowire
// by nanowire, whether it decodes. trial_context hoists everything that
// depends only on the *design* out of the trial:
//   * a flat row-major drive-voltage table (row i = the mesowire voltages
//     driving nanowire i's own address) and the radix's drive levels,
//   * a flat nominal-V_T table (the window criterion's reference levels),
//   * a flat noise-scale table sqrt(nu(i,j)) from the dose-count matrix:
//     region (i,j) receives nu(i,j) independent N(0, sigma) dose
//     perturbations (Definition 5), whose sum is exactly
//     N(0, sigma * sqrt(nu(i,j))) -- so one deviate per region realizes
//     the same V_T distribution the op-by-op walk samples,
//   * contact-group member lists in one flat offsets+indices layout,
//   * per-nanowire discard probabilities.
//
// run_trial is the scalar per-trial path and the oracle; run_trial_block
// runs a block of trials as lanes, in three phases:
//   1. deviates: standard_normal_block seeds and twists every trial's
//      mt19937_64 stream lane-parallel and writes each trial's N*M normals
//      down its lane of a structure-of-arrays slab, then the trial's tail
//      uniforms (defect and discard draws). Stream positions and tail
//      uniforms are exact; the normals are certified to deviate_rel_bound
//      of the scalar stream's (util/rng.h), because their polar multiplier
//      comes from a lane-parallel polynomial log;
//   2. survival: the tail uniforms become per-nanowire lane masks;
//   3. verdicts: V_T = nominal + sigma * sqrt(nu) * z, the scalar path's
//      expression. The operational criterion realizes each (nanowire,
//      region) lane row and compares it with every drive level in one pass
//      (below_level_masks); a contact group's verdicts are then ANDs and
//      ORs of those lane masks (addressable_group_masks) -- exact, because
//      the drive levels are finite and strictly increasing, so "gate > vt"
//      is the only question the scalar rule asks. The window criterion
//      realizes the slab in place and sweeps margins per nanowire.
//      Survivors' verdict bits are counted per lane.
//
// The verdict certificate. A deviate feeds only comparisons, so its exact
// value matters only within rounding distance of a threshold. The compare
// pass (operational) and the in-place realization (window) therefore also
// mark every lane whose realized V_T lies within a certification band of
// a drive level, or whose |V_T - nominal| lies within the band of the
// window half-width. The band is the deviate bound at the largest |z| a
// polar deviate reaches, doubled, plus a few ulp (~1e-13 V at the paper's
// sigma). Each marked lane is redrawn from its exact per-trial stream
// (block_rng::from_counter(run_key, trial).standard_normal_fill, the
// scalar path's draws) and its masks are redone, so every good count is
// exactly run_trial's whatever the multiplier's last bits; exactness rests
// only on libm's log being within deviate_rel_bound. The fallback is the
// exact stream itself, not a mode: there is no switch, and
// trial_scratch::fallback_lanes counts how often it ran (0 in practice:
// the band is ~1e-12 of a sigma wide).
// Both paths touch only these tables plus a caller-owned trial_scratch,
// so the inner loops perform no heap allocation once warm and are safe to
// run from many threads at once (the context is immutable after
// construction; each worker owns its scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codes/word.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "fab/defects.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace nwdec::yield {

/// Which addressability criterion the Monte Carlo applies.
enum class mc_mode {
  window,
  operational,
};

/// Reusable per-thread buffers for run_trial and run_trial_block;
/// allocation-free after the first trial (or block) warms them to full
/// size. `vt_lanes` holds a whole trial block's standard deviates, cell
/// (i, j) of trial t at vt_lanes[(i * regions + j) * lane_stride + t]
/// (realized to V_T in place by the window criterion; the operational
/// compare pass realizes them on the fly).
/// Lane masks hold trial t at bit t % 64 of word t / 64 of a row of
/// ceil(count / 64) words.
struct trial_scratch {
  matrix<double> realized_vt;
  fab::defect_map defects;

  std::vector<double> vt_lanes;        ///< cells x lane_stride slab
  std::vector<std::uint64_t> below;    ///< cells x drive levels lane masks
  std::vector<std::uint64_t> alive;    ///< per-nanowire survival lane masks
  std::vector<std::uint64_t> verdicts; ///< per-nanowire verdict lane masks
  std::vector<double> cell_scales;     ///< per-cell sigma * sqrt(nu)
  std::vector<double> margins;         ///< window: margin + verdict rows
  lane_rng_scratch streams;            ///< the block's generator state
  std::vector<double> tail_uniforms;   ///< trials x tail draws
  std::vector<std::uint8_t> disabled;  ///< per-nanowire defect verdicts
  std::vector<double> tolerances;      ///< per-cell certification bands
  std::vector<std::uint64_t> uncertain;    ///< lanes to re-derive exactly
  std::vector<std::uint8_t> near;          ///< window: per-lane flags
  std::vector<std::uint64_t> exact_below;  ///< one lane's exact masks
  /// Lanes whose verdicts run_trial_block re-derived from the exact
  /// per-trial stream because a realized value sat within the
  /// certification band of a threshold. Cumulative over the scratch's
  /// blocks; it only counts, and never changes a result.
  std::size_t fallback_lanes = 0;
};

/// Immutable precomputed view of one (design, contact plan) pair, shared by
/// every trial worker. Holds references to `design` and `plan`; both must
/// outlive the context.
class trial_context {
 public:
  trial_context(const decoder::decoder_design& design,
                const crossbar::contact_group_plan& plan);

  /// The analyzed design the context was built from.
  const decoder::decoder_design& design() const { return design_; }
  /// N, nanowires per half cave.
  std::size_t nanowire_count() const { return nanowires_; }

  /// Fabricates one virtual cave from `stream` and counts addressable
  /// nanowires under `mode` at process sigma `sigma_vt`, optionally
  /// sampling structural defects (`defects` may be null). Draw order is
  /// fixed: one standard_normal_fill of N*M deviates (row-major), the
  /// defect map, then one Bernoulli per at-risk nanowire -- deterministic
  /// in `stream` alone, so trial results are bit-identical no matter which
  /// thread runs them. The realized V_T is distributed exactly as the
  /// op-by-op process_simulator walk (see the header comment), but the
  /// streams differ, so agreement with the scalar reference is statistical,
  /// not bitwise.
  std::size_t run_trial(rng& stream, trial_scratch& scratch, mc_mode mode,
                        double sigma_vt,
                        const fab::defect_params* defects) const;

  /// Blocked trial kernel: runs trials [first, first + count) of the run
  /// keyed by `run_key` -- trial i consuming the stream
  /// rng::from_counter(run_key, i), exactly as run_trial does -- and writes
  /// trial first + t's addressable count into good[t]. Bit-identical to
  /// `count` scalar run_trial calls for every count: standard_normal_block
  /// reproduces each trial's stream positions and tail draws exactly and
  /// its deviates within deviate_rel_bound, the V_T transform applies the
  /// same expression per cell, the lane masks record the same comparisons,
  /// and the verdict certificate redraws exactly every lane a deviate's
  /// last bits could flip (see the header comment). The speedup comes
  /// from structure -- lane-parallel stream seeding, twisting and polar
  /// multipliers, one compare pass per (row, region, level), verdicts as
  /// bitwise ANDs and ORs -- not from changing any draw or any verdict.
  void run_trial_block(std::uint64_t run_key, std::uint64_t first,
                       std::size_t count, trial_scratch& scratch, mc_mode mode,
                       double sigma_vt, const fab::defect_params* defects,
                       std::uint32_t* good) const;

 private:
  bool window_ok(const double* vt_row, std::size_t row) const;
  bool operational_ok(const matrix<double>& realized_vt,
                      std::size_t row) const;

  const decoder::decoder_design& design_;
  const crossbar::contact_group_plan& plan_;
  std::size_t nanowires_ = 0;
  std::size_t regions_ = 0;
  double window_half_width_ = 0.0;

  std::vector<double> drive_table_;    ///< N x M, row i = drive of address i
  std::vector<double> drive_levels_;   ///< drive voltage of each digit value
  double level_magnitude_ = 0.0;       ///< max |drive level|
  std::vector<double> nominal_vt_;     ///< N x M nominal levels
  std::vector<double> noise_scale_;    ///< N x M, sqrt(nu(i,j))
  /// N x M lower window guards: -window_half_width where the digit has
  /// blocking duty, -infinity where digit 0 exempts the lower bound (the
  /// guard then never binds), so the blocked window kernel needs no digit
  /// branch in the lane body.
  std::vector<double> window_low_guard_;
  std::vector<double> discard_probability_;  ///< per nanowire
  /// Nanowires with discard_probability_ > 0, in index order -- exactly
  /// the set the scalar path draws a discard Bernoulli for, so the blocked
  /// kernel can bulk-draw one uniform per entry and stay draw-for-draw
  /// identical.
  std::vector<std::size_t> at_risk_;
  std::vector<std::size_t> group_of_;        ///< per nanowire
  std::vector<std::size_t> member_offsets_;  ///< group g: [offsets[g], offsets[g+1])
  std::vector<std::size_t> members_;         ///< member indices, grouped
};

}  // namespace nwdec::yield
