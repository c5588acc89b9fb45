// The unified design-space engine: determinism across thread counts and
// grid orderings, cache correctness against the uncached pipeline, the
// per-point seeding contract, and the JSON/CSV serializers.
#include "core/sweep_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "codes/factory.h"
#include "crossbar/area_model.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "util/error.h"
#include "yield/analytic_yield.h"

namespace nwdec::core {
namespace {

sweep_engine make_engine() {
  return sweep_engine(crossbar::crossbar_spec{}, device::paper_technology());
}

std::vector<sweep_request> small_grid(std::size_t mc_trials) {
  std::vector<sweep_request> grid;
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray}) {
    for (const double sigma : {0.04, 0.05}) {
      sweep_request request;
      request.design = {type, 2, 8};
      request.sigma_vt = sigma;
      request.mc_trials = mc_trials;
      if (type == codes::code_type::gray) {
        request.defects = fab::defect_params{0.05, 0.01};
      }
      grid.push_back(request);
    }
  }
  return grid;
}

void expect_entries_identical(const sweep_engine_entry& a,
                              const sweep_engine_entry& b) {
  EXPECT_EQ(a.evaluation.nanowire_yield, b.evaluation.nanowire_yield);
  EXPECT_EQ(a.evaluation.crosspoint_yield, b.evaluation.crosspoint_yield);
  EXPECT_EQ(a.evaluation.effective_bits, b.evaluation.effective_bits);
  EXPECT_EQ(a.evaluation.bit_area_nm2, b.evaluation.bit_area_nm2);
  EXPECT_EQ(a.evaluation.has_monte_carlo, b.evaluation.has_monte_carlo);
  EXPECT_EQ(a.evaluation.mc_nanowire_yield, b.evaluation.mc_nanowire_yield);
  EXPECT_EQ(a.evaluation.mc_ci_low, b.evaluation.mc_ci_low);
  EXPECT_EQ(a.evaluation.mc_ci_high, b.evaluation.mc_ci_high);
}

design_evaluation evaluate(const sweep_engine& engine,
                           const design_point& design,
                           std::size_t mc_trials = 0,
                           std::uint64_t seed = 1) {
  sweep_engine_options options;
  options.seed = seed;
  return engine.run(sweep_axes{.designs = {design}, .mc_trials = mc_trials},
                    options)
      .entries.front()
      .evaluation;
}

TEST(SweepEngineTest, EvaluationIsInternallyConsistent) {
  const design_evaluation e =
      evaluate(make_engine(), {codes::code_type::gray, 2, 8});
  EXPECT_EQ(e.code_space, 16u);
  EXPECT_EQ(e.fabrication_steps, 40u);  // 2N for binary, N = 20
  EXPECT_NEAR(e.crosspoint_yield, e.nanowire_yield * e.nanowire_yield, 1e-12);
  EXPECT_NEAR(e.effective_bits, e.crosspoint_yield * 131072.0, 1e-6);
  EXPECT_NEAR(e.bit_area_nm2, e.total_area_nm2 / e.effective_bits, 1e-9);
  EXPECT_FALSE(e.has_monte_carlo);
}

TEST(SweepEngineTest, MonteCarloAttachmentIsSane) {
  const design_evaluation e =
      evaluate(make_engine(), {codes::code_type::balanced_gray, 2, 8}, 60, 9);
  ASSERT_TRUE(e.has_monte_carlo);
  EXPECT_GT(e.mc_nanowire_yield, 0.0);
  EXPECT_LE(e.mc_ci_low, e.mc_nanowire_yield);
  EXPECT_GE(e.mc_ci_high, e.mc_nanowire_yield);
  // Operational Monte Carlo should not fall far below the analytic model.
  EXPECT_GT(e.mc_nanowire_yield, e.nanowire_yield - 0.05);
}

TEST(SweepEngineTest, BitIdenticalAcrossThreadCounts) {
  const sweep_engine engine = make_engine();
  std::vector<sweep_request> grid = small_grid(120);
  // A sigma ladder on one design: its Monte-Carlo yield must also fall as
  // the process variability grows.
  const std::size_t ladder = grid.size();
  for (const double sigma : {0.02, 0.05, 0.09}) {
    sweep_request request;
    request.design = {codes::code_type::gray, 2, 8};
    request.sigma_vt = sigma;
    request.mc_trials = 300;
    grid.push_back(request);
  }
  sweep_engine_options options;
  options.seed = 42;

  options.threads = 1;
  const sweep_engine_report one = engine.run(grid, options);
  ASSERT_EQ(one.entries.size(), grid.size());
  // 0 = the thread budget; 3 splits unevenly across points and trials.
  for (const std::size_t threads : {0UL, 2UL, 3UL, 8UL}) {
    options.threads = threads;
    const sweep_engine_report other = engine.run(grid, options);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      expect_entries_identical(one.entries[k], other.entries[k]);
    }
  }
  const auto mc_yield = [&](std::size_t k) {
    return one.entries[ladder + k].evaluation.mc_nanowire_yield;
  };
  EXPECT_GE(mc_yield(0), mc_yield(1));
  EXPECT_GT(mc_yield(1), mc_yield(2));
}

TEST(SweepEngineTest, InvariantUnderGridReordering) {
  // A point's Monte-Carlo run key is a pure function of (seed, the point
  // itself), so a permuted grid returns the correspondingly permuted
  // entries bit-for-bit -- analytic AND Monte-Carlo.
  const sweep_engine engine = make_engine();
  const std::vector<sweep_request> grid = small_grid(100);
  sweep_engine_options options;
  options.seed = 7;
  options.threads = 4;
  const sweep_engine_report forward = engine.run(grid, options);

  const std::vector<sweep_request> reversed(grid.rbegin(), grid.rend());
  const sweep_engine_report backward = engine.run(reversed, options);

  const std::size_t n = grid.size();
  for (std::size_t k = 0; k < n; ++k) {
    expect_entries_identical(forward.entries[k],
                             backward.entries[n - 1 - k]);
  }
}

TEST(SweepEngineTest, McStreamsDependOnlyOnSeedAndPoint) {
  // Attaching or omitting Monte-Carlo on one point must not shift the
  // streams of the others.
  const sweep_engine engine = make_engine();
  sweep_request analytic_head;
  analytic_head.design = {codes::code_type::tree, 2, 6};
  sweep_request mc_head = analytic_head;
  mc_head.mc_trials = 80;
  sweep_request tail;
  tail.design = {codes::code_type::balanced_gray, 2, 8};
  tail.mc_trials = 80;

  sweep_engine_options options;
  options.seed = 13;
  options.threads = 1;
  const sweep_engine_report without_mc =
      engine.run({analytic_head, tail}, options);
  const sweep_engine_report with_mc = engine.run({mc_head, tail}, options);

  EXPECT_FALSE(without_mc.entries[0].evaluation.has_monte_carlo);
  EXPECT_TRUE(with_mc.entries[0].evaluation.has_monte_carlo);
  expect_entries_identical(without_mc.entries[1], with_mc.entries[1]);
}

TEST(SweepEngineTest, CachedResultsMatchUncachedPipeline) {
  // Every figure the engine reports must equal the straight-line
  // (per-point rebuild) computation to the bit, including on sigma and
  // nanowire axes that exercise the overrides.
  const crossbar::crossbar_spec spec;
  const device::technology tech = device::paper_technology();
  const sweep_engine engine(spec, tech);

  std::vector<sweep_request> grid;
  for (const std::size_t n : {std::size_t{20}, std::size_t{40}}) {
    for (const double sigma : {0.05, 0.065}) {
      sweep_request request;
      request.design = {codes::code_type::balanced_gray, 2, 8};
      request.nanowires = n;
      request.sigma_vt = sigma;
      grid.push_back(request);
    }
  }
  const sweep_engine_report report = engine.run(grid);
  EXPECT_EQ(report.cache.designs_built, 2u);  // one per distinct N
  EXPECT_EQ(report.cache.design_reuses, 2u);

  for (const sweep_engine_entry& entry : report.entries) {
    device::technology point_tech = tech;
    point_tech.sigma_vt = entry.request.sigma_vt;
    const codes::code code = codes::make_code(
        entry.request.design.type, entry.request.design.radix,
        entry.request.design.length);
    const decoder::decoder_design design(code, entry.request.nanowires,
                                         point_tech);
    const crossbar::contact_group_plan plan = crossbar::plan_contact_groups(
        entry.request.nanowires, code.size(), point_tech);
    const yield::yield_result yields = yield::analytic_yield(design, plan);
    crossbar::crossbar_spec point_spec = spec;
    point_spec.nanowires_per_half_cave = entry.request.nanowires;
    const crossbar::layer_geometry geometry =
        crossbar::derive_layer_geometry(point_spec, point_tech,
                                        entry.request.design.length,
                                        plan.group_count);
    const crossbar::area_breakdown area =
        crossbar::estimate_area(geometry, point_tech);

    EXPECT_EQ(entry.evaluation.nanowire_yield, yields.nanowire_yield);
    EXPECT_EQ(entry.evaluation.crosspoint_yield, yields.crosspoint_yield);
    EXPECT_EQ(entry.evaluation.expected_discarded, yields.expected_discarded);
    EXPECT_EQ(entry.evaluation.effective_bits,
              yield::effective_bits(yields, spec.raw_bits));
    EXPECT_EQ(entry.evaluation.total_area_nm2, area.total_nm2);
    EXPECT_EQ(entry.evaluation.contact_groups, plan.group_count);
  }
}

TEST(SweepEngineTest, AxesExpandInDocumentedOrder) {
  sweep_axes axes;
  axes.designs = {{codes::code_type::tree, 2, 6},
                  {codes::code_type::gray, 2, 8}};
  axes.nanowires = {20, 40};
  axes.sigmas_vt = {0.04, 0.05, 0.06};
  axes.mc_trials = 9;
  const std::vector<sweep_request> grid = axes.expand();
  ASSERT_EQ(grid.size(), 12u);
  // designs slowest, then nanowires, then sigmas.
  EXPECT_EQ(grid[0].design.type, codes::code_type::tree);
  EXPECT_EQ(grid[0].nanowires, 20u);
  EXPECT_EQ(grid[0].sigma_vt, 0.04);
  EXPECT_EQ(grid[2].sigma_vt, 0.06);
  EXPECT_EQ(grid[3].nanowires, 40u);
  EXPECT_EQ(grid[6].design.type, codes::code_type::gray);
  for (const sweep_request& request : grid) {
    EXPECT_EQ(request.mc_trials, 9u);
  }
  EXPECT_THROW(sweep_axes{}.expand(), invalid_argument_error);
}

TEST(SweepEngineTest, BadGridPointsFailWithActionableDiagnostics) {
  const sweep_engine engine = make_engine();
  sweep_request bad;
  bad.design = {codes::code_type::gray, 2, 7};  // odd tree-family length
  try {
    engine.run({bad});
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& diagnostic) {
    const std::string what = diagnostic.what();
    EXPECT_NE(what.find("GC"), std::string::npos) << what;
    EXPECT_NE(what.find("radix 2"), std::string::npos) << what;
    EXPECT_NE(what.find("full length 7"), std::string::npos) << what;
  }
  EXPECT_THROW(engine.run(std::vector<sweep_request>{}),
               invalid_argument_error);
}

// ------------------------------------------------------------ fingerprints

TEST(SweepEngineFingerprintTest, DistinctGridPointsGetDistinctFingerprints) {
  // The memoization contract (see the fingerprint() doc): every resolved
  // point of a realistic product grid must key a distinct result slot.
  sweep_axes axes;
  for (const codes::code_type type :
       {codes::code_type::tree, codes::code_type::gray,
        codes::code_type::balanced_gray, codes::code_type::hot,
        codes::code_type::arranged_hot}) {
    for (const std::size_t length : {std::size_t{4}, std::size_t{6},
                                     std::size_t{8}, std::size_t{10}}) {
      axes.designs.push_back({type, 2, length});
    }
  }
  axes.nanowires = {10, 20, 40, 80};
  axes.sigmas_vt = {0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.065, 0.08, 0.1};
  axes.defects = {std::nullopt, fab::defect_params{0.05, 0.01},
                  fab::defect_params{0.01, 0.05}};
  axes.mc_trials = 100;

  const std::vector<sweep_request> grid = axes.expand();
  std::set<std::uint64_t> seen;
  for (const sweep_request& request : grid) {
    EXPECT_TRUE(seen.insert(fingerprint(request)).second)
        << "fingerprint collision at " << request.design.label();
  }
  EXPECT_EQ(seen.size(), grid.size());
}

TEST(SweepEngineFingerprintTest, SensitiveToEveryRequestField) {
  sweep_request base;
  base.design = {codes::code_type::balanced_gray, 2, 8};
  base.nanowires = 20;
  base.sigma_vt = 0.05;
  base.mc_trials = 100;
  const std::uint64_t reference = fingerprint(base);

  sweep_request changed = base;
  changed.design.type = codes::code_type::gray;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.design.radix = 3;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.design.length = 10;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.nanowires = 40;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.sigma_vt = 0.051;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.mc_trials = 101;
  EXPECT_NE(fingerprint(changed), reference);
  changed = base;
  changed.defects = fab::defect_params{0.0, 0.0};  // presence alone counts
  EXPECT_NE(fingerprint(changed), reference);
  const std::uint64_t with_zero_defects = fingerprint(changed);
  changed.defects = fab::defect_params{0.05, 0.0};
  EXPECT_NE(fingerprint(changed), with_zero_defects);

  // And an identical request fingerprints identically (pure function).
  EXPECT_EQ(fingerprint(base), reference);
}

// ---------------------------------------------- per-point budgets as data

sweep_request budget_point() {
  sweep_request request;
  request.design = {codes::code_type::balanced_gray, 2, 8};
  request.sigma_vt = 0.05;
  request.mc_trials = 1000;
  return request;
}

TEST(SweepEngineMcBudgetTest, ResumedRunsReproduceAFixedRunBitForBit) {
  const sweep_engine engine = make_engine();
  const sweep_request request = budget_point();
  sweep_engine_options options;
  options.seed = 31;
  const sweep_engine_report straight = engine.run({request}, options);
  EXPECT_EQ(straight.entries[0].mc_trials_used, 1000u);

  for (const std::size_t prefix : {250UL, 500UL, 750UL}) {
    // An adaptive budget whose first rung is `prefix` and whose target
    // every estimate meets stops there: the persisted progress a later
    // request resumes from.
    mc_plan stop_early;
    stop_early.adaptive = adaptive_options{0.999, prefix, 2.0};
    const sweep_engine_entry partial =
        engine.run({request}, options, {stop_early}).entries[0];
    ASSERT_EQ(partial.mc_trials_used, prefix);

    mc_plan resumed;
    resumed.resume = yield::mc_run_state::from_moments(
        partial.mc_trials_used, partial.evaluation.mc_nanowire_yield,
        partial.mc_m2);
    const sweep_engine_entry topped =
        engine.run({request}, options, {resumed}).entries[0];
    EXPECT_EQ(topped.mc_trials_used, 1000u) << "prefix " << prefix;
    EXPECT_EQ(topped.mc_m2, straight.entries[0].mc_m2) << "prefix " << prefix;
    expect_entries_identical(straight.entries[0], topped);
  }
}

TEST(SweepEngineMcBudgetTest, OneRunServesMixedBudgets) {
  // Fixed and adaptive points in one grid land exactly where they land in
  // runs of their own.
  const sweep_engine engine = make_engine();
  sweep_engine_options options;
  options.seed = 7;
  sweep_request cliff = budget_point();
  cliff.sigma_vt = 0.08;
  cliff.mc_trials = 20000;
  const mc_plan fixed;
  mc_plan loose, tight;
  loose.adaptive = adaptive_options{0.05, 64, 2.0};
  tight.adaptive = adaptive_options{0.02, 64, 2.0};

  const sweep_engine_report mixed = engine.run(
      {budget_point(), cliff, cliff}, options, {fixed, loose, tight});
  const std::vector<std::pair<sweep_request, mc_plan>> alone = {
      {budget_point(), fixed}, {cliff, loose}, {cliff, tight}};
  for (std::size_t k = 0; k < alone.size(); ++k) {
    const sweep_engine_entry single =
        engine.run({alone[k].first}, options, {alone[k].second}).entries[0];
    EXPECT_EQ(mixed.entries[k].mc_trials_used, single.mc_trials_used) << k;
    expect_entries_identical(mixed.entries[k], single);
  }
  EXPECT_LT(mixed.entries[1].mc_trials_used, mixed.entries[2].mc_trials_used);
}

std::vector<sweep_request> check_grid() {
  std::vector<sweep_request> grid;
  for (const double sigma : {0.03, 0.05, 0.07, 0.09}) {
    sweep_request request;
    request.design = {codes::code_type::gray, 2, 8};
    request.sigma_vt = sigma;
    request.mc_trials = 200;
    grid.push_back(request);
  }
  return grid;
}

TEST(SweepEngineMcBudgetTest, ACheckRunsBeforeEachBuildAndEachChunk) {
  // Fresh engine, one design: a design build and a trial-context build in
  // the prepare phase, then one chunk per Monte-Carlo point.
  const sweep_engine engine = make_engine();
  std::atomic<std::size_t> calls{0};
  const cancel_check_fn count = [&calls] { ++calls; };
  engine.run(check_grid(), {}, {}, count);
  EXPECT_EQ(calls.load(), 2u + check_grid().size());
  // Warm: no builds left, only the chunks.
  calls = 0;
  engine.run(check_grid(), {}, {}, count);
  EXPECT_EQ(calls.load(), check_grid().size());
}

TEST(SweepEngineMcBudgetTest, AThrowingCheckPropagatesOutOfRun) {
  // A check that throws (the job's cancellation check does) ends run()
  // with that exception at every thread budget -- never a std::terminate
  // from a worker thread. The engine is warm, so the throw comes from the
  // Monte-Carlo chunks of the evaluation phase.
  const sweep_engine engine = make_engine();
  engine.run(check_grid());
  const std::size_t built = engine.cache_stats().designs_built;
  const cancel_check_fn stop = [] { throw std::runtime_error("stop"); };
  sweep_engine_options options;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    options.threads = threads;
    EXPECT_THROW(engine.run(check_grid(), options, {}, stop),
                 std::runtime_error)
        << "threads " << threads;
  }
  EXPECT_EQ(engine.cache_stats().designs_built, built);
}

TEST(SweepEngineMcBudgetTest, ACheckThrowingFirstStopsBeforeAnyDesignBuild) {
  const sweep_engine engine = make_engine();
  const cancel_check_fn stop = [] { throw std::runtime_error("stop"); };
  EXPECT_THROW(engine.run(check_grid(), {}, {}, stop), std::runtime_error);
  EXPECT_EQ(engine.cache_stats().designs_built, 0u);
  EXPECT_EQ(engine.cache_stats().plans_built, 0u);
}

TEST(SweepEngineMcBudgetTest, RejectsABudgetListOfTheWrongLength) {
  const sweep_engine engine = make_engine();
  EXPECT_THROW(engine.run(check_grid(), {}, {mc_plan{}}),
               invalid_argument_error);
}

// ------------------------------------------------------------- serializers

TEST(SweepEngineSerializerTest, JsonIsStableAndCompleteAcrossRuns) {
  const sweep_engine engine = make_engine();
  const std::vector<sweep_request> grid = small_grid(40);
  sweep_engine_options options;
  options.seed = 3;
  options.threads = 1;
  const std::string a = to_json(engine.run(grid, options));
  options.threads = 4;
  const std::string b = to_json(engine.run(grid, options));

  // Serializing equivalent runs gives the same document except for the
  // wall-clock and thread fields; key *order* is identical. Compare the
  // key sequences and the point payloads.
  const auto keys_of = [](const std::string& document) {
    std::vector<std::string> keys;
    for (std::size_t at = document.find('"'); at != std::string::npos;
         at = document.find('"', at + 1)) {
      const std::size_t end = document.find('"', at + 1);
      if (end == std::string::npos) break;
      if (document.compare(end + 1, 1, ":") == 0) {
        keys.push_back(document.substr(at + 1, end - at - 1));
      }
      at = end;
    }
    return keys;
  };
  EXPECT_EQ(keys_of(a), keys_of(b));
  EXPECT_NE(a.find("\"bench\": \"sweep_engine\""), std::string::npos);

  // Every grid point appears, with the MC block present exactly when asked.
  std::size_t point_count = 0;
  for (std::size_t at = a.find("\"sigma_vt\""); at != std::string::npos;
       at = a.find("\"sigma_vt\"", at + 1)) {
    ++point_count;
  }
  EXPECT_EQ(point_count, grid.size());
  EXPECT_NE(a.find("\"mc_nanowire_yield\""), std::string::npos);
}

TEST(SweepEngineSerializerTest, CsvRoundTripsEveryNumericColumn) {
  const sweep_engine engine = make_engine();
  const std::vector<sweep_request> grid = small_grid(25);
  sweep_engine_options options;
  options.seed = 9;
  const sweep_engine_report report = engine.run(grid, options);
  const std::string csv = to_csv(report);

  // Parse back: header + one line per entry, fields in declared order.
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("code,radix,length,nanowires,sigma_vt", 0), 0u);

  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream stream(line);
    while (std::getline(stream, cell, ',')) cells.push_back(cell);
    return cells;
  };
  std::size_t row_index = 0;
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_LT(row_index, report.entries.size());
    const sweep_engine_entry& entry = report.entries[row_index];
    const std::vector<std::string> cells = split(line);
    ASSERT_GE(cells.size(), 18u);
    EXPECT_EQ(cells[0], codes::code_type_name(entry.request.design.type));
    EXPECT_EQ(std::stoul(cells[2]), entry.request.design.length);
    EXPECT_EQ(std::stoul(cells[3]), entry.request.nanowires);
    EXPECT_DOUBLE_EQ(std::strtod(cells[4].c_str(), nullptr),
                     entry.request.sigma_vt);
    EXPECT_DOUBLE_EQ(std::strtod(cells[12].c_str(), nullptr),
                     entry.evaluation.nanowire_yield);
    EXPECT_DOUBLE_EQ(std::strtod(cells[16].c_str(), nullptr),
                     entry.evaluation.bit_area_nm2);
    EXPECT_DOUBLE_EQ(std::strtod(cells[17].c_str(), nullptr),
                     entry.evaluation.mc_nanowire_yield);
    ++row_index;
  }
  EXPECT_EQ(row_index, report.entries.size());
}

}  // namespace
}  // namespace nwdec::core
