// Deterministic random number generation for the Monte-Carlo simulators.
//
// Every stochastic component in nwdec takes an explicit `rng&` so that whole
// experiments are reproducible from a single seed, and so that independent
// streams can be forked for parallel or per-trial use without correlation.
//
// Two forking schemes are provided:
//   * fork() draws the child seed from the parent's stream. It is
//     deterministic only for a fixed fork order, so it suits sequential
//     code that forks exactly once per consumer.
//   * from_counter(key, counter) / fork_stream(counter) derive the child
//     seed purely from (key, counter) with a splitmix64 finalizer. The
//     parent's state is never read or advanced, so stream `i` is the same
//     no matter which thread asks for it or in what order -- this is the
//     contract the multithreaded Monte-Carlo engine relies on to shard
//     trials across workers while staying bit-identical to a serial run:
//     trial i always consumes stream from_counter(run_key, i), where
//     run_key is drawn once from the caller's rng (so successive engine
//     invocations on one rng stay decorrelated).
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "util/error.h"

namespace nwdec {

/// Seeded pseudo-random generator wrapping std::mt19937_64 with the handful
/// of distributions the simulators need.
class rng {
 public:
  /// Creates a generator from a 64-bit seed. The same seed always produces
  /// the same stream on every platform (mt19937_64 is fully specified).
  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : seed_(seed), engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi); requires lo < hi.
  double uniform(double lo, double hi) {
    NWDEC_EXPECTS(lo < hi, "uniform(lo, hi) requires lo < hi");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n); requires n > 0.
  std::size_t index(std::size_t n) {
    NWDEC_EXPECTS(n > 0, "index(n) requires n > 0");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Normal deviate with the given mean and standard deviation (sigma >= 0).
  double gaussian(double mean, double sigma) {
    NWDEC_EXPECTS(sigma >= 0.0, "gaussian sigma must be non-negative");
    if (sigma == 0.0) return mean;
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Fills `out[0..count)` with standard-normal deviates drawn from one
  /// distribution instance, so the polar method's cached second deviate is
  /// used instead of discarded -- about half the underlying uniform draws
  /// of `count` separate gaussian() calls. The resulting stream therefore
  /// differs from repeated gaussian(0, 1) calls; batch consumers (the
  /// Monte-Carlo trial kernel) define their draw order in terms of this
  /// call.
  void standard_normal_fill(double* out, std::size_t count) {
    std::normal_distribution<double> normal(0.0, 1.0);
    for (std::size_t k = 0; k < count; ++k) out[k] = normal(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    NWDEC_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0, 1]");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Forks an independent child stream by drawing the child seed from this
  /// stream. Deterministic for a fixed fork order only; parallel code must
  /// use the counter-based scheme below instead.
  rng fork() {
    const std::uint64_t child_seed = engine_() ^ 0xd1b54a32d192ed03ULL;
    return rng(child_seed);
  }

  /// The seed from_counter(key, counter) constructs its child stream with:
  /// the raw splitmix64 mixing, without building a generator. Fingerprint
  /// cascades and the blocked trial kernel use this directly so deriving a
  /// stream identity never pays for an engine-state initialization.
  static std::uint64_t counter_seed(std::uint64_t key, std::uint64_t counter) {
    return mix(key + 0x9e3779b97f4a7c15ULL * (counter + 1));
  }

  /// Counter-based forking: an independent stream derived purely from
  /// (key, counter) via a splitmix64 finalizer. Distinct counters under one
  /// key give uncorrelated streams, and the mapping involves no generator
  /// state, so results are bit-identical regardless of thread count or
  /// evaluation order.
  static rng from_counter(std::uint64_t key, std::uint64_t counter) {
    return rng(counter_seed(key, counter));
  }

  /// from_counter keyed by this generator's construction seed; does not
  /// read or advance the stream.
  rng fork_stream(std::uint64_t counter) const {
    return from_counter(seed_, counter);
  }

  /// The seed this generator was constructed from (key for fork_stream).
  std::uint64_t seed() const { return seed_; }

  /// Access to the raw engine for std::shuffle and similar algorithms.
  std::mt19937_64& engine() { return engine_; }

 private:
  /// splitmix64 finalizer: bijective avalanche mixing of a 64-bit value
  /// (Steele, Lea & Flood); the standard seed-derivation function for
  /// counter-based stream families.
  static std::uint64_t mix(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
  }

  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// mt19937_64 re-implemented from its (fully standard-specified)
/// recurrence, plus the exact draw rules of the distributions the trial
/// kernel consumes -- the exact single-stream statement of the deviate
/// contract that standard_normal_block (below) runs many streams at once
/// (with certified rather than bit-exact deviate values), and the exact
/// stream the Monte-Carlo verdict certificate falls back to:
///
///   * Its raw output is bit-identical to std::mt19937_64 by construction
///     (the engine is specified exactly; the tests verify it). It seeds in
///     place, twists the state lazily in chunks (a stream that stops
///     mid-round never finishes the round), and fills with an arbitrary
///     output stride.
///   * Its canonical / bernoulli / standard_normal_fill draws replicate the
///     draw-for-draw behavior of rng's std distributions on this engine
///     (libstdc++'s generate_canonical / bernoulli / Marsaglia-polar
///     normal_distribution), pinned here as the repo's deviate contract:
///     canonical = u * 2^-64 clamped below 1; bernoulli(p) = canonical < p
///     (always one draw); normals come from polar pairs (x, y) of
///     canonicals with rejection on r2 = x^2 + y^2, emitting y*mult then
///     x*mult with mult = sqrt(-2 log(r2) / r2), a fresh pair state per
///     fill call. The rng_test suite asserts equality against the std
///     paths, so a standard library whose distributions diverge from this
///     contract fails loudly instead of silently changing results.
class block_rng {
 public:
  static constexpr std::size_t state_size = 312;

  /// Seeds in place; same state as std::mt19937_64{seed}.
  explicit block_rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    this->seed(seed);
  }

  /// Re-seeds this generator in place (no state copy, unlike assigning a
  /// freshly constructed object).
  void seed(std::uint64_t seed);

  /// The stream rng::from_counter(key, counter) draws from.
  static block_rng from_counter(std::uint64_t key, std::uint64_t counter) {
    return block_rng(rng::counter_seed(key, counter));
  }

  /// Raw engine output; bit-identical to std::mt19937_64::operator().
  std::uint64_t next() {
    if (index_ >= twisted_) replenish();
    return temper(state_[index_++]);
  }

  /// std::generate_canonical<double, 53>(engine): one draw scaled by
  /// 2^-64, clamped to the largest double below 1 when the conversion
  /// rounds up to 1.
  double canonical() { return to_unit(next()); }

  /// std::bernoulli_distribution(p)(engine): one draw always, even at
  /// p == 0 -- the draw count is part of the stream contract.
  bool bernoulli(double p) { return canonical() < p; }

  /// Fills deviate k at out[k * stride] for k in [0, count) with exactly
  /// the standard normals rng::standard_normal_fill would produce from the
  /// same engine state (see the class comment for the pinned polar rule),
  /// leaving the engine positioned identically afterwards. stride > 1 lets
  /// the batched kernel scatter one trial's deviates down a lane column of
  /// a structure-of-arrays slab in the same pass that generates them.
  void standard_normal_fill(double* out, std::size_t count,
                            std::size_t stride = 1);

 private:
  /// mt19937_64's output tempering.
  static std::uint64_t temper(std::uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Tempered word -> canonical in [0, 1), branch-free and bit-identical
  /// to libstdc++'s generate_canonical on this engine:
  ///   * u64 -> double via two exactly-representable 32-bit halves whose
  ///     single-rounding sum IS the correctly rounded double(u) -- no
  ///     sign-test branch (a 50/50 branch here, since engine output is
  ///     uniform over the full 64-bit range);
  ///   * the >= 1 clamp as a min: every double strictly below 1 is at most
  ///     1 - 2^-53, so min(value, 1 - 2^-53) only alters values that
  ///     rounded up to exactly 1.
  static double to_unit(std::uint64_t u) {
    const double exact =
        static_cast<double>(static_cast<std::uint32_t>(u >> 32)) *
            4294967296.0 +
        static_cast<double>(static_cast<std::uint32_t>(u));
    const double value = exact * 0x1p-64;
    return value < 0x1.fffffffffffffp-1 ? value : 0x1.fffffffffffffp-1;
  }

  /// Advances the lazy twist so at least one tempered word is available.
  void replenish();
  /// Twists words [twisted_, limit) of the current round in place.
  void twist_to(std::size_t limit);

  std::uint64_t state_[state_size];
  std::size_t index_ = state_size;    ///< next untempered word to emit
  std::size_t twisted_ = state_size;  ///< words of the current round twisted
};

/// Reusable buffers of standard_normal_block; no heap allocation once they
/// have grown to the largest block.
struct lane_rng_scratch {
  std::vector<std::uint64_t> state;  ///< lane groups x 312 x 8 state words
  std::vector<std::uint64_t> seeds;  ///< one per trial
};

/// Relative bound of standard_normal_block's deviates: each one is within
/// deviate_rel_bound * |z| of the deviate z rng::standard_normal_fill
/// draws at the same stream position. The vector paths (AVX2, AVX-512)
/// compute the polar multiplier with a polynomial log
/// (util/rng_kernels.h); their measured error is a few ulp (~2^-50), so
/// the bound leaves a wide margin. The plain paths (scalar, SSE2) use
/// std::log and are exact (bound 0). The bound assumes only that libm's
/// log is itself within it of the true logarithm.
inline constexpr double deviate_rel_bound = 0x1p-44;

/// Every polar deviate satisfies |z| <= deviate_abs_bound: canonical pairs
/// have r2 >= 2^-106 (nonzero |2u - 1| >= 2^-53), and |z| <= sqrt(-2 ln r2)
/// <= sqrt(212 ln 2) ~ 12.12. Consumers size their certification
/// tolerances from it.
inline constexpr double deviate_abs_bound = 12.25;

/// The batched counter-based generator of the blocked Monte-Carlo kernel.
/// Trial t in [0, trials) draws from the stream rng::from_counter(key,
/// first + t): its first `count` standard normals land at
/// lanes[k * lane_stride + t] (structure-of-arrays, one row per deviate)
/// and the next `tail_count` canonicals of the same stream at
/// tail_uniforms[t * tail_count + k], exactly the block_rng::canonical()
/// draws that would follow (the trial's defect and discard uniforms).
///
/// Certified contract: the stream positions are exact -- every polar
/// accept/reject decision, the number of words each trial consumes and
/// therefore every tail uniform are bit-identical to the trial's scalar
/// stream, because they depend on the uniforms alone. The deviate values
/// are within deviate_rel_bound of rng::standard_normal_fill's (bit-exact
/// on the plain paths): the multiplier sqrt(-2 log(r2) / r2) comes from a
/// lane-parallel polynomial log, eight lanes per vector on AVX-512.
/// Consumers that need exact verdicts certify them (see
/// yield::trial_context::run_trial_block) and redraw a trial through
/// block_rng, the exact single-stream path, when a value sits too close to
/// a threshold.
///
/// The streams are seeded and twisted lane-parallel, in one
/// structure-of-arrays mt19937_64 state per group of eight trials (the
/// per-path kernels of util/rng_kernels.h); only the compress of the
/// accepted pairs and the writes into the slab run lane by lane. Requires
/// lane_stride >= trials.
void standard_normal_block(std::uint64_t key, std::uint64_t first,
                           std::size_t trials, std::size_t count,
                           double* lanes, std::size_t lane_stride,
                           std::size_t tail_count, double* tail_uniforms,
                           lane_rng_scratch& scratch);

}  // namespace nwdec
