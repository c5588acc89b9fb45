#include "core/sweep_engine.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "codes/factory.h"
#include "crossbar/area_model.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::core {

// Everything derivable from (code_type, radix, full_length, nanowires)
// alone; one entry serves every (sigma, defects, trials) grid point. The
// members reference each other (design copies the code, the context
// references the design and the shared plan), so entries live behind
// unique_ptr and are immutable after construction.
struct sweep_engine::prepared_design {
  codes::code code;
  decoder::decoder_design design;
  const crossbar::contact_group_plan* plan;
  // Built lazily by prepare_locked on the first Monte-Carlo request for
  // this design: analytic-only sweeps never pay for the O(N*M) engine
  // tables.
  std::unique_ptr<yield::trial_context> context;
  crossbar::layer_geometry geometry;
  crossbar::area_breakdown area;

  prepared_design(codes::code built, std::size_t nanowires,
                  const device::technology& tech,
                  const crossbar::contact_group_plan& shared_plan,
                  const crossbar::crossbar_spec& point_spec)
      : code(std::move(built)),
        design(code, nanowires, tech),
        plan(&shared_plan),
        geometry(crossbar::derive_layer_geometry(point_spec, tech, code.length,
                                                 shared_plan.group_count)),
        area(crossbar::estimate_area(geometry, tech)) {}
};

std::vector<sweep_request> sweep_axes::expand() const {
  NWDEC_EXPECTS(!designs.empty(), "sweep axes need at least one design point");
  const std::vector<std::size_t> nanowire_axis =
      nanowires.empty() ? std::vector<std::size_t>{0} : nanowires;
  const std::vector<double> sigma_axis =
      sigmas_vt.empty() ? std::vector<double>{-1.0} : sigmas_vt;
  const std::vector<std::optional<fab::defect_params>> defect_axis =
      defects.empty() ? std::vector<std::optional<fab::defect_params>>{
                            std::nullopt}
                      : defects;

  std::vector<sweep_request> out;
  out.reserve(designs.size() * nanowire_axis.size() * sigma_axis.size() *
              defect_axis.size());
  for (const design_point& design : designs) {
    for (const std::size_t n : nanowire_axis) {
      for (const double sigma : sigma_axis) {
        for (const std::optional<fab::defect_params>& defect : defect_axis) {
          sweep_request request;
          request.design = design;
          request.nanowires = n;
          request.sigma_vt = sigma;
          request.mc_trials = mc_trials;
          request.defects = defect;
          out.push_back(request);
        }
      }
    }
  }
  return out;
}

// See the header for the full fingerprint contract: a pure function of the
// point's parameters, so a point's Monte-Carlo run key -- from_counter(seed,
// fingerprint) -- never depends on the point's grid position or on what
// the other grid points are. Two identical requests therefore produce
// identical entries (the memoizable semantics service::result_store keys on).
std::uint64_t fingerprint(const sweep_request& request) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  // counter_seed is the raw splitmix64 cascade: same values from_counter
  // seeds streams with, without paying for an engine-state initialization
  // per mix step (this runs once per grid point on every sweep).
  const auto mix_in = [&h](std::uint64_t v) {
    h = rng::counter_seed(h, v);
  };
  const auto mix_double = [&mix_in](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_in(bits);
  };
  mix_in(static_cast<std::uint64_t>(request.design.type));
  mix_in(request.design.radix);
  mix_in(request.design.length);
  mix_in(request.nanowires);
  mix_in(request.mc_trials);
  mix_double(request.sigma_vt);
  mix_in(request.defects.has_value() ? 1 : 0);
  if (request.defects.has_value()) {
    mix_double(request.defects->broken_probability);
    mix_double(request.defects->bridge_probability);
  }
  return h;
}

void adaptive_options::validate() const {
  NWDEC_EXPECTS(target_half_width > 0.0 && target_half_width < 1.0,
                "target_half_width must lie in (0, 1)");
  NWDEC_EXPECTS(initial_batch >= 1, "initial_batch must be at least 1");
  NWDEC_EXPECTS(growth > 1.0, "growth must exceed 1 (the schedule must grow)");
}

std::uint64_t adaptive_options::fingerprint() const {
  // Same splitmix64 cascade as fingerprint(sweep_request), over the policy
  // fields; the leading constant differs so a policy fingerprint never
  // collides with the "fixed budget" sentinel 0 by construction of the
  // chain.
  std::uint64_t h = 0xa0761d6478bd642fULL;
  const auto mix_in = [&h](std::uint64_t v) {
    h = rng::from_counter(h, v).seed();
  };
  std::uint64_t bits = 0;
  std::memcpy(&bits, &target_half_width, sizeof(bits));
  mix_in(bits);
  mix_in(initial_batch);
  std::memcpy(&bits, &growth, sizeof(bits));
  mix_in(bits);
  return h;
}

std::size_t next_batch(const adaptive_options& policy,
                       std::size_t trials_done, double half_width) {
  if (trials_done == 0) return policy.initial_batch;
  if (half_width <= policy.target_half_width) return 0;
  // Grow the *total* geometrically, anchored at the absolute rungs
  // ceil(initial_batch * growth^k) -- a pure function of the policy,
  // never of where the run started. A run resumed from persisted progress
  // therefore visits exactly the rungs a cold run visits (the sweep
  // service's cross-restart top-up rides this), while a hard point still
  // needs only O(log(total)) convergence checks.
  double total = static_cast<double>(policy.initial_batch);
  const double done = static_cast<double>(trials_done);
  while (std::ceil(total) <= done && total < 1e18) total *= policy.growth;
  const double rung = std::min(std::ceil(total), 1e18);
  return static_cast<std::size_t>(rung) - trials_done;
}

namespace {

// Field-wise equality of resolved requests, used to tell a genuine
// fingerprint collision (a bug worth failing loudly on) from the same point
// appearing twice in one grid (benign).
bool same_request(const sweep_request& a, const sweep_request& b) {
  if (a.design.type != b.design.type || a.design.radix != b.design.radix ||
      a.design.length != b.design.length || a.nanowires != b.nanowires ||
      a.sigma_vt != b.sigma_vt || a.mc_trials != b.mc_trials ||
      a.defects.has_value() != b.defects.has_value()) {
    return false;
  }
  if (a.defects.has_value()) {
    return a.defects->broken_probability == b.defects->broken_probability &&
           a.defects->bridge_probability == b.defects->bridge_probability;
  }
  return true;
}

}  // namespace

sweep_engine::sweep_engine(crossbar::crossbar_spec spec,
                           device::technology tech)
    : spec_(spec), tech_(tech) {
  spec_.validate();
  tech_.validate();
}

sweep_engine::~sweep_engine() = default;

const sweep_engine::prepared_design& sweep_engine::prepare_locked(
    const sweep_request& request, const cancel_check_fn& check) const {
  const design_key key{static_cast<int>(request.design.type),
                       request.design.radix, request.design.length,
                       request.nanowires};
  prepared_design* entry = nullptr;
  const auto found = designs_.find(key);
  if (found != designs_.end()) {
    ++stats_.design_reuses;
    entry = found->second.get();
  } else {
    if (check) check();
    codes::code code = codes::make_code(request.design.type,
                                        request.design.radix,
                                        request.design.length);
    const plan_key shared{request.nanowires, code.size()};
    auto plan_it = plans_.find(shared);
    if (plan_it == plans_.end()) {
      plan_it = plans_
                    .emplace(shared,
                             std::make_unique<crossbar::contact_group_plan>(
                                 crossbar::plan_contact_groups(
                                     request.nanowires, code.size(), tech_)))
                    .first;
      ++stats_.plans_built;
    } else {
      ++stats_.plan_reuses;
    }

    crossbar::crossbar_spec point_spec = spec_;
    point_spec.nanowires_per_half_cave = request.nanowires;
    entry = designs_
                .emplace(key, std::make_unique<prepared_design>(
                                  std::move(code), request.nanowires, tech_,
                                  *plan_it->second, point_spec))
                .first->second.get();
    ++stats_.designs_built;
  }
  if (request.mc_trials > 0 && entry->context == nullptr) {
    if (check) check();
    entry->context = std::make_unique<yield::trial_context>(entry->design,
                                                            *entry->plan);
  }
  return *entry;
}

sweep_engine_report sweep_engine::run(const std::vector<sweep_request>& points,
                                      const sweep_engine_options& options,
                                      const std::vector<mc_plan>& mc_plans,
                                      const cancel_check_fn& check) const {
  NWDEC_EXPECTS(!points.empty(),
                "a design-space sweep needs at least one grid point");
  NWDEC_EXPECTS(mc_plans.empty() || mc_plans.size() == points.size(),
                "a sweep needs one Monte-Carlo plan per grid point");
  for (const mc_plan& plan : mc_plans) {
    if (plan.adaptive.has_value()) plan.adaptive->validate();
  }

  const std::size_t budget =
      options.threads == 0 ? thread_budget() : options.threads;
  const std::size_t workers = runner_count(points.size(), budget);
  const std::size_t inner_threads = std::max<std::size_t>(1, budget / workers);

  // Prepare phase: resolve platform defaults and bind every point to its
  // cache entry. All cache mutation happens here, under the lock; bad grid
  // points fail fast with the factory's diagnostics before any thread
  // starts, and the cancel check runs before each build.
  std::vector<sweep_request> resolved(points);
  std::vector<const prepared_design*> prepared(points.size(), nullptr);
  std::vector<std::uint64_t> fingerprints(points.size(), 0);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<std::uint64_t, std::size_t> seen;
    seen.reserve(points.size());
    for (std::size_t k = 0; k < resolved.size(); ++k) {
      sweep_request& request = resolved[k];
      request = resolve(request);
      if (request.defects.has_value()) request.defects->validate();
      prepared[k] = &prepare_locked(request, check);
      // Fingerprint uniqueness check (see the fingerprint() contract):
      // distinct resolved points must never alias one run key / cache slot.
      fingerprints[k] = fingerprint(request);
      const auto [it, inserted] = seen.emplace(fingerprints[k], k);
      NWDEC_ENSURES(inserted || same_request(resolved[it->second], request),
                    "fingerprint collision between distinct grid points");
    }
  }

  // Evaluation phase: shard points across workers (parallel_for's atomic
  // cursor). Slot k belongs to point k alone and its Monte-Carlo run key
  // depends only on (seed, the point itself), so the result is independent
  // of the sharding, the grid order, and the other grid points.
  std::vector<sweep_engine_entry> entries(points.size());
  const mc_plan fixed_plan;
  parallel_for(points.size(), workers, [&](std::size_t, std::size_t k) {
    const sweep_request& request = resolved[k];
    const prepared_design& p = *prepared[k];
    sweep_engine_entry& entry = entries[k];
    entry.request = request;

    design_evaluation& e = entry.evaluation;
    e.point = request.design;
    e.code_space = p.code.size();
    e.fabrication_steps = p.design.fabrication_complexity();
    e.average_variability = p.design.average_variability_sigma_units();
    e.contact_groups = p.plan->group_count;
    const yield::yield_result yields =
        yield::analytic_yield(p.design, *p.plan, request.sigma_vt);
    e.expected_discarded = yields.expected_discarded;
    e.nanowire_yield = yields.nanowire_yield;
    e.crosspoint_yield = yields.crosspoint_yield;
    e.effective_bits = yield::effective_bits(yields, spec_.raw_bits);
    e.total_area_nm2 = p.area.total_nm2;
    e.bit_area_nm2 = crossbar::bit_area_nm2(p.area, e.effective_bits);

    if (request.mc_trials > 0) {
      yield::mc_options mc;
      mc.mode = options.mode;
      mc.threads = inner_threads;
      mc.defects = request.defects;
      mc.sigma_vt = request.sigma_vt;
      const std::uint64_t run_key =
          rng::from_counter(options.seed, fingerprints[k]).seed();

      const auto started = std::chrono::steady_clock::now();
      const mc_plan& plan = mc_plans.empty() ? fixed_plan : mc_plans[k];
      yield::mc_run_state state = plan.resume.value_or(yield::mc_run_state{});
      // One loop for every budget: the goal is the cap for a fixed budget
      // and the next absolute rung for an adaptive one, reached in chunks
      // with the cancel check before each. The per-trial streams are
      // counter-based, so any schedule summing to T -- resumed prefix
      // included -- is bit-identical to one T-trial batch.
      yield::mc_yield_result result = yield::mc_result_from_state(state);
      while (state.trials() < request.mc_trials) {
        std::size_t goal = request.mc_trials;
        if (plan.adaptive.has_value()) {
          const double done = static_cast<double>(state.trials());
          const std::size_t batch =
              next_batch(*plan.adaptive, state.trials(),
                         wilson_half_width(state.mean() * done, done));
          if (batch == 0) break;
          goal = std::min(goal, state.trials() + batch);
        }
        while (state.trials() < goal) {
          if (check) check();
          mc.trials = std::min(goal - state.trials(), mc_chunk_trials);
          result =
              yield::monte_carlo_yield_resume(*p.context, mc, run_key, state);
        }
      }
      const auto finished = std::chrono::steady_clock::now();

      if (state.trials() > 0) {
        e.has_monte_carlo = true;
        e.mc_nanowire_yield = result.nanowire_yield;
        e.mc_ci_low = result.ci.low;
        e.mc_ci_high = result.ci.high;
        entry.mc_trials_used = state.trials();
        entry.mc_m2 = state.per_trial_yield.sum_squared_deviations();
        entry.mc_seconds =
            std::chrono::duration<double>(finished - started).count();
        entry.mc_trials_per_second =
            entry.mc_seconds > 0.0
                ? static_cast<double>(state.trials()) / entry.mc_seconds
                : 0.0;
      }
    }
  });

  sweep_engine_report report;
  report.mode = options.mode;
  report.threads = workers;
  report.seed = options.seed;
  report.raw_bits = spec_.raw_bits;
  report.default_nanowires = spec_.nanowires_per_half_cave;
  report.default_sigma_vt = tech_.sigma_vt;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    report.cache = stats_;
  }
  report.entries = std::move(entries);
  return report;
}

sweep_engine_report sweep_engine::run(const sweep_axes& axes,
                                      const sweep_engine_options& options)
    const {
  return run(axes.expand(), options);
}

sweep_cache_stats sweep_engine::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

sweep_request sweep_engine::resolve(sweep_request request) const {
  if (request.nanowires == 0) {
    request.nanowires = spec_.nanowires_per_half_cave;
  }
  if (request.sigma_vt < 0.0) request.sigma_vt = tech_.sigma_vt;
  return request;
}

namespace {

const char* mode_name(yield::mc_mode mode) {
  return mode == yield::mc_mode::window ? "window" : "operational";
}

// Shortest representation that parses back to the same double, so the CSV
// round-trips exactly through strtod.
std::string format_full(double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string to_json(const sweep_engine_report& report) {
  json_writer json;
  json.begin_object()
      .field("bench", "sweep_engine")
      .field("mode", mode_name(report.mode))
      .field("threads", report.threads)
      .field("seed", report.seed)
      .field("raw_bits", report.raw_bits)
      .field("default_nanowires", report.default_nanowires)
      .field("default_sigma_vt", report.default_sigma_vt);
  json.key("cache")
      .begin_object()
      .field("designs_built", report.cache.designs_built)
      .field("design_reuses", report.cache.design_reuses)
      .field("plans_built", report.cache.plans_built)
      .field("plan_reuses", report.cache.plan_reuses)
      .end_object();
  json.key("points").begin_array();
  for (const sweep_engine_entry& entry : report.entries) {
    const design_evaluation& e = entry.evaluation;
    const fab::defect_params defects =
        entry.request.defects.value_or(fab::defect_params{});
    json.begin_object()
        .field("code", codes::code_type_name(entry.request.design.type))
        .field("radix", entry.request.design.radix)
        .field("length", entry.request.design.length)
        .field("nanowires", entry.request.nanowires)
        .field("sigma_vt", entry.request.sigma_vt)
        .field("mc_trials", entry.request.mc_trials)
        .field("broken_probability", defects.broken_probability)
        .field("bridge_probability", defects.bridge_probability)
        .field("omega", e.code_space)
        .field("phi", e.fabrication_steps)
        .field("average_variability", e.average_variability)
        .field("contact_groups", e.contact_groups)
        .field("expected_discarded", e.expected_discarded)
        .field("nanowire_yield", e.nanowire_yield)
        .field("crosspoint_yield", e.crosspoint_yield)
        .field("effective_bits", e.effective_bits)
        .field("total_area_nm2", e.total_area_nm2)
        .field("bit_area_nm2", e.bit_area_nm2);
    if (e.has_monte_carlo) {
      // Wilson bounds and the proportion standard error are derived from
      // the stored (mean, trials_used) payload alone, so the block stays a
      // pure function of the cached result.
      const double trials_used = static_cast<double>(entry.mc_trials_used);
      const interval wilson =
          wilson_interval(e.mc_nanowire_yield * trials_used, trials_used);
      json.field("mc_nanowire_yield", e.mc_nanowire_yield)
          .field("mc_ci_low", e.mc_ci_low)
          .field("mc_ci_high", e.mc_ci_high)
          .field("mc_wilson_low", wilson.low)
          .field("mc_wilson_high", wilson.high)
          .field("mc_stderr",
                 proportion_stderr(e.mc_nanowire_yield, trials_used))
          .field("mc_trials_used", entry.mc_trials_used)
          .field("mc_seconds", entry.mc_seconds)
          .field("mc_trials_per_second", entry.mc_trials_per_second);
    }
    json.end_object();
  }
  return json.end_array().end_object().str();
}

std::string to_csv(const sweep_engine_report& report) {
  const std::vector<std::string> header = {
      "code",           "radix",
      "length",         "nanowires",
      "sigma_vt",       "mc_trials",
      "broken_probability", "bridge_probability",
      "omega",          "phi",
      "contact_groups", "expected_discarded",
      "nanowire_yield", "crosspoint_yield",
      "effective_bits", "total_area_nm2",
      "bit_area_nm2",   "mc_nanowire_yield",
      "mc_ci_low",      "mc_ci_high",
      "mc_trials_used"};

  std::string out = csv_row(header);
  for (const sweep_engine_entry& entry : report.entries) {
    const design_evaluation& e = entry.evaluation;
    const fab::defect_params defects =
        entry.request.defects.value_or(fab::defect_params{});
    std::vector<std::string> row = {
        codes::code_type_name(entry.request.design.type),
        std::to_string(entry.request.design.radix),
        std::to_string(entry.request.design.length),
        std::to_string(entry.request.nanowires),
        format_full(entry.request.sigma_vt),
        std::to_string(entry.request.mc_trials),
        format_full(defects.broken_probability),
        format_full(defects.bridge_probability),
        std::to_string(e.code_space),
        std::to_string(e.fabrication_steps),
        std::to_string(e.contact_groups),
        format_full(e.expected_discarded),
        format_full(e.nanowire_yield),
        format_full(e.crosspoint_yield),
        format_full(e.effective_bits),
        format_full(e.total_area_nm2),
        format_full(e.bit_area_nm2),
        e.has_monte_carlo ? format_full(e.mc_nanowire_yield) : "",
        e.has_monte_carlo ? format_full(e.mc_ci_low) : "",
        e.has_monte_carlo ? format_full(e.mc_ci_high) : "",
        e.has_monte_carlo ? std::to_string(entry.mc_trials_used) : ""};
    out += csv_row(row);
  }
  return out;
}

}  // namespace nwdec::core
