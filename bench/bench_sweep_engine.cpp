// Microbenchmark of the unified design-space engine: an uncached per-point
// loop (the "legacy" rows: rebuild code, decoder matrices, contact plan,
// and Monte-Carlo context for every grid point, evaluate sequentially) vs
// core::sweep_engine (keyed caches + design points sharded across workers).
//
// Two grids:
//   * the paper's Figs. 7/8 grid (17 distinct designs -- caching saves the
//     shared contact plans, and a second warm-cache pass shows the
//     sweep-service steady state where nothing is rebuilt at all);
//   * a (code x sigma) ablation grid, where the uncached loop scans sigma
//     by rebuilding every design per point while the engine builds each
//     design once.
//
// Correctness gates: the engine's analytic figures must equal the legacy
// loop's to the bit, and the engine must be bit-identical across runs.
// Reports points/sec per variant and writes a JSON record for the bench
// trajectory / CI artifact.
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "codes/factory.h"
#include "core/experiments.h"
#include "core/sweep_engine.h"
#include "crossbar/area_model.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "mc_oracles.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "util/json.h"
#include "util/parallel.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace {

using namespace nwdec;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The uncached per-point evaluation path: everything rebuilt per point,
// nothing shared between points -- the baseline the engine is timed and
// checked against.
core::design_evaluation legacy_evaluate(const crossbar::crossbar_spec& spec,
                                        const device::technology& tech,
                                        const core::design_point& point,
                                        std::size_t mc_trials,
                                        std::uint64_t seed) {
  const codes::code code =
      codes::make_code(point.type, point.radix, point.length);
  const decoder::decoder_design design(code, spec.nanowires_per_half_cave,
                                       tech);
  const crossbar::contact_group_plan plan = crossbar::plan_contact_groups(
      design.nanowire_count(), code.size(), tech);
  const yield::yield_result yields = yield::analytic_yield(design, plan);
  const crossbar::layer_geometry geometry = crossbar::derive_layer_geometry(
      spec, tech, point.length, plan.group_count);
  const crossbar::area_breakdown area =
      crossbar::estimate_area(geometry, tech);

  core::design_evaluation out;
  out.point = point;
  out.code_space = code.size();
  out.fabrication_steps = design.fabrication_complexity();
  out.average_variability = design.average_variability_sigma_units();
  out.contact_groups = plan.group_count;
  out.expected_discarded = yields.expected_discarded;
  out.nanowire_yield = yields.nanowire_yield;
  out.crosspoint_yield = yields.crosspoint_yield;
  out.effective_bits = yield::effective_bits(yields, spec.raw_bits);
  out.total_area_nm2 = area.total_nm2;
  out.bit_area_nm2 = crossbar::bit_area_nm2(area, out.effective_bits);

  if (mc_trials > 0) {
    rng random(seed);
    yield::mc_options options;
    options.mode = yield::mc_mode::operational;
    options.trials = mc_trials;
    options.threads = 1;
    const yield::mc_yield_result mc =
        testkit::monte_carlo_yield(design, plan, options, random);
    out.has_monte_carlo = true;
    out.mc_nanowire_yield = mc.nanowire_yield;
    out.mc_ci_low = mc.ci.low;
    out.mc_ci_high = mc.ci.high;
  }
  return out;
}

bool analytics_match(const core::design_evaluation& a,
                     const core::design_evaluation& b) {
  return a.nanowire_yield == b.nanowire_yield &&
         a.crosspoint_yield == b.crosspoint_yield &&
         a.bit_area_nm2 == b.bit_area_nm2 &&
         a.effective_bits == b.effective_bits &&
         a.fabrication_steps == b.fabrication_steps;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_sweep_engine",
                 "design-space sweeps: legacy per-point loop vs the cached "
                 "multithreaded engine");
  cli.add_int("trials", 400, "Monte-Carlo trials per design point");
  cli.add_int("threads", 0, "engine worker threads (0 = hardware)");
  cli.add_int("seed", 2009, "base seed");
  cli.add_string("json", "BENCH_sweep_engine.json",
                 "JSON output path ('' = off)");
  cli.add_flag("quick", "smoke mode: few trials, for CI");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const std::size_t trials = cli.get_flag("quick")
                                 ? 60
                                 : static_cast<std::size_t>(
                                       cli.get_int("trials"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::size_t threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) threads = thread_budget();

  const crossbar::crossbar_spec spec;
  const device::technology tech = device::paper_technology();

  bench::banner("Sweep engine",
                "unified design-space engine vs per-point rebuild");

  // ------------------------------------------------ Figs. 7/8 design grid
  const std::vector<core::design_point> grid = core::yield_grid();
  std::cout << "grid A: Figs. 7/8 (" << grid.size()
            << " design points), trials/point = " << trials << "\n\n";

  auto start = std::chrono::steady_clock::now();
  std::vector<core::design_evaluation> legacy;
  legacy.reserve(grid.size());
  for (const core::design_point& point : grid) {
    legacy.push_back(legacy_evaluate(spec, tech, point, trials, seed));
  }
  const double legacy_seconds = seconds_since(start);

  const core::sweep_engine engine(spec, tech);
  core::sweep_axes axes;
  axes.designs = grid;
  axes.mc_trials = trials;
  core::sweep_engine_options options;
  options.seed = seed;

  options.threads = 1;
  start = std::chrono::steady_clock::now();
  const core::sweep_engine_report cold = engine.run(axes, options);
  const double cold_seconds = seconds_since(start);

  // Second pass over the same engine: the sweep-service steady state --
  // every design, plan, and trial context served from cache.
  start = std::chrono::steady_clock::now();
  const core::sweep_engine_report warm = engine.run(axes, options);
  const double warm_seconds = seconds_since(start);

  options.threads = threads;
  start = std::chrono::steady_clock::now();
  const core::sweep_engine_report sharded = engine.run(axes, options);
  const double sharded_seconds = seconds_since(start);

  bool analytics_identical = true;
  bool bit_identical = true;
  for (std::size_t k = 0; k < grid.size(); ++k) {
    analytics_identical =
        analytics_identical &&
        analytics_match(legacy[k], cold.entries[k].evaluation);
    const core::design_evaluation& a = cold.entries[k].evaluation;
    for (const core::design_evaluation& b :
         {warm.entries[k].evaluation, sharded.entries[k].evaluation}) {
      bit_identical = bit_identical && analytics_match(a, b) &&
                      a.mc_nanowire_yield == b.mc_nanowire_yield &&
                      a.mc_ci_low == b.mc_ci_low &&
                      a.mc_ci_high == b.mc_ci_high;
    }
  }

  const double grid_points = static_cast<double>(grid.size());
  text_table table_a({"variant", "seconds", "points/sec", "vs legacy"});
  const auto add_variant = [&](const std::string& name, double seconds) {
    table_a.add_row({name, format_fixed(seconds, 4),
                     format_fixed(grid_points / seconds, 1),
                     format_fixed(legacy_seconds / seconds, 2) + "x"});
  };
  add_variant("legacy per-point sweep", legacy_seconds);
  add_variant("engine, cold cache", cold_seconds);
  add_variant("engine, warm cache", warm_seconds);
  add_variant("engine, " + std::to_string(threads) + " workers (warm)",
              sharded_seconds);
  table_a.print(std::cout);
  std::cout << "\nanalytic figures "
            << (analytics_identical ? "identical to legacy"
                                    : "DIVERGED FROM LEGACY (BUG)")
            << "; engine runs "
            << (bit_identical ? "bit-identical" : "DIVERGED (BUG)") << "\n";

  // ------------------------------------------ (code x sigma) ablation grid
  // The uncached loop scans sigma by retuning the technology and
  // rebuilding every design per point; the engine applies sigma as an
  // override on one cached design.
  const std::vector<double> sigmas = {0.025, 0.04, 0.05, 0.065, 0.08, 0.1};
  const std::vector<core::design_point> families = {
      {codes::code_type::tree, 2, 8},
      {codes::code_type::gray, 2, 8},
      {codes::code_type::balanced_gray, 2, 8},
      {codes::code_type::hot, 2, 8},
      {codes::code_type::arranged_hot, 2, 8}};
  std::cout << "\ngrid B: (code x sigma), " << families.size() << " x "
            << sigmas.size() << " points, trials/point = " << trials
            << "\n\n";

  // Both variants spend ~99% of every point inside the same Monte-Carlo
  // engine, so a single timed pass mostly measures scheduler noise (it can
  // show a phantom ~0.97x "regression"). Best-of-two timing keeps the
  // comparison about the per-point work.
  std::vector<core::design_evaluation> legacy_sigma;
  double legacy_sigma_seconds = 0.0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    legacy_sigma.clear();
    start = std::chrono::steady_clock::now();
    for (const double sigma : sigmas) {
      device::technology point_tech = tech;
      point_tech.sigma_vt = sigma;
      for (const core::design_point& point : families) {
        legacy_sigma.push_back(
            legacy_evaluate(spec, point_tech, point, trials, seed));
      }
    }
    const double seconds = seconds_since(start);
    legacy_sigma_seconds =
        repeat == 0 ? seconds : std::min(legacy_sigma_seconds, seconds);
  }

  const core::sweep_engine sigma_engine(spec, tech);
  std::vector<core::sweep_request> sigma_grid;
  for (const double sigma : sigmas) {
    for (const core::design_point& point : families) {
      core::sweep_request request;
      request.design = point;
      request.sigma_vt = sigma;
      request.mc_trials = trials;
      sigma_grid.push_back(request);
    }
  }
  options.threads = threads;
  core::sweep_engine_report sigma_report;
  double engine_sigma_seconds = 0.0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    start = std::chrono::steady_clock::now();
    sigma_report = sigma_engine.run(sigma_grid, options);
    const double seconds = seconds_since(start);
    engine_sigma_seconds =
        repeat == 0 ? seconds : std::min(engine_sigma_seconds, seconds);
  }

  bool sigma_analytics_identical = true;
  for (std::size_t k = 0; k < sigma_grid.size(); ++k) {
    sigma_analytics_identical =
        sigma_analytics_identical &&
        analytics_match(legacy_sigma[k], sigma_report.entries[k].evaluation);
  }

  const double sigma_points = static_cast<double>(sigma_grid.size());
  text_table table_b({"variant", "seconds", "points/sec", "vs legacy"});
  table_b.add_row({"legacy rebuild per sigma",
                   format_fixed(legacy_sigma_seconds, 4),
                   format_fixed(sigma_points / legacy_sigma_seconds, 1),
                   "1.0x"});
  table_b.add_row({"engine, cached designs",
                   format_fixed(engine_sigma_seconds, 4),
                   format_fixed(sigma_points / engine_sigma_seconds, 1),
                   format_fixed(legacy_sigma_seconds / engine_sigma_seconds,
                                2) +
                       "x"});
  table_b.print(std::cout);
  std::cout << "\nanalytic figures "
            << (sigma_analytics_identical ? "identical to legacy"
                                          : "DIVERGED FROM LEGACY (BUG)")
            << "; cache: " << sigma_report.cache.designs_built
            << " designs built for " << sigma_grid.size() << " points ("
            << sigma_report.cache.design_reuses << " served from cache)\n";

  // ---------------------- analytic-only sigma scan (orchestration cost)
  // With Monte Carlo off, what remains per point is exactly the layer this
  // bench exists to watch: resolve + fingerprint + cache binding + report
  // assembly for the engine, full design rebuilds for the legacy loop. A
  // regression in engine orchestration shows up here as a rate change,
  // instead of hiding behind milliseconds of MC.
  const std::size_t analytic_points = cli.get_flag("quick") ? 400 : 2000;
  std::cout << "\ngrid C: analytic-only sigma scan, 1 design x "
            << analytic_points << " sigmas, no Monte Carlo\n\n";
  const core::design_point analytic_design{codes::code_type::gray, 2, 8};
  std::vector<double> analytic_sigmas(analytic_points);
  for (std::size_t k = 0; k < analytic_points; ++k) {
    analytic_sigmas[k] =
        0.02 + 0.08 * static_cast<double>(k) /
                   static_cast<double>(analytic_points);
  }

  start = std::chrono::steady_clock::now();
  double legacy_checksum = 0.0;
  for (const double sigma : analytic_sigmas) {
    device::technology point_tech = tech;
    point_tech.sigma_vt = sigma;
    legacy_checksum +=
        legacy_evaluate(spec, point_tech, analytic_design, 0, seed)
            .nanowire_yield;
  }
  const double analytic_legacy_seconds = seconds_since(start);

  const core::sweep_engine analytic_engine(spec, tech);
  std::vector<core::sweep_request> analytic_grid;
  analytic_grid.reserve(analytic_points);
  for (const double sigma : analytic_sigmas) {
    core::sweep_request request;
    request.design = analytic_design;
    request.sigma_vt = sigma;
    analytic_grid.push_back(request);
  }
  options.threads = 1;  // isolate per-point cost, not sharding
  analytic_engine.run({analytic_grid[0]}, options);  // build the one design
  start = std::chrono::steady_clock::now();
  const core::sweep_engine_report analytic_report =
      analytic_engine.run(analytic_grid, options);
  const double analytic_engine_seconds = seconds_since(start);
  options.threads = threads;

  double engine_checksum = 0.0;
  for (const core::sweep_engine_entry& entry : analytic_report.entries) {
    engine_checksum += entry.evaluation.nanowire_yield;
  }
  const bool analytic_scan_identical = legacy_checksum == engine_checksum;
  const double analytic_count = static_cast<double>(analytic_points);
  text_table table_c({"variant", "us/point", "points/sec", "vs legacy"});
  table_c.add_row(
      {"legacy rebuild per point",
       format_fixed(analytic_legacy_seconds / analytic_count * 1e6, 2),
       format_fixed(analytic_count / analytic_legacy_seconds, 0), "1.0x"});
  table_c.add_row(
      {"engine, warm cache",
       format_fixed(analytic_engine_seconds / analytic_count * 1e6, 2),
       format_fixed(analytic_count / analytic_engine_seconds, 0),
       format_fixed(analytic_legacy_seconds / analytic_engine_seconds, 2) +
           "x"});
  table_c.print(std::cout);
  std::cout << "\nanalytic sigma scan "
            << (analytic_scan_identical ? "identical to legacy"
                                        : "DIVERGED FROM LEGACY (BUG)")
            << "\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    json_writer json;
    json.begin_object()
        .field("bench", "sweep_engine")
        .field("trials", trials)
        .field("seed", seed)
        .field("threads", threads)
        .field("hardware_concurrency", thread_budget())
        .field("simd_path", cpu::simd_path_name(cpu::active_path()))
        .field("figs78_points", grid.size())
        .field("legacy_points_per_second", grid_points / legacy_seconds)
        .field("engine_cold_points_per_second", grid_points / cold_seconds)
        .field("engine_warm_points_per_second", grid_points / warm_seconds)
        .field("engine_sharded_points_per_second",
               grid_points / sharded_seconds)
        .field("warm_cache_speedup", legacy_seconds / warm_seconds)
        .field("sigma_grid_points", sigma_grid.size())
        .field("sigma_legacy_points_per_second",
               sigma_points / legacy_sigma_seconds)
        .field("sigma_engine_points_per_second",
               sigma_points / engine_sigma_seconds)
        .field("sigma_grid_speedup",
               legacy_sigma_seconds / engine_sigma_seconds)
        .field("analytic_sigma_points", analytic_points)
        .field("analytic_sigma_legacy_points_per_second",
               analytic_count / analytic_legacy_seconds)
        .field("analytic_sigma_engine_points_per_second",
               analytic_count / analytic_engine_seconds)
        .field("analytic_sigma_speedup",
               analytic_legacy_seconds / analytic_engine_seconds)
        .field("analytics_identical_to_legacy",
               analytics_identical && sigma_analytics_identical &&
                   analytic_scan_identical)
        .field("bit_identical_across_runs", bit_identical)
        .end_object();
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "wrote " << json_path << "\n";
  }

  return analytics_identical && sigma_analytics_identical &&
                 analytic_scan_identical && bit_identical
             ? 0
             : 1;
}
