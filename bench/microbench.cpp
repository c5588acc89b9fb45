// Micro-benchmarks (google-benchmark) of the library's hot kernels: code
// construction, decoder matrix pipeline, analytic yield, and one
// Monte-Carlo fabrication trial. Useful to keep the experiment harnesses
// fast as the library evolves.
#include <benchmark/benchmark.h>

#include "codes/arranged_hot_code.h"
#include "codes/balanced_gray.h"
#include "codes/factory.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "fab/process_sim.h"
#include "mc_oracles.h"
#include "util/rng.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace {

using namespace nwdec;

void bm_gray_code_generation(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes::make_code(codes::code_type::gray, 2,
                                              length));
  }
}
BENCHMARK(bm_gray_code_generation)->Arg(8)->Arg(12)->Arg(16);

void bm_balanced_gray_search(benchmark::State& state) {
  const auto free_length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes::balanced_gray_code_words(2, free_length));
  }
}
BENCHMARK(bm_balanced_gray_search)->Arg(4)->Arg(5)->Arg(6);

void bm_revolving_door(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes::revolving_door_words(2 * k, k));
  }
}
BENCHMARK(bm_revolving_door)->Arg(4)->Arg(5)->Arg(6);

void bm_decoder_pipeline(benchmark::State& state) {
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::balanced_gray,
                                            2, 8);
  for (auto _ : state) {
    const decoder::decoder_design design(code, 20, tech);
    benchmark::DoNotOptimize(design.fabrication_complexity());
    benchmark::DoNotOptimize(design.variability_norm_sigma_units());
  }
}
BENCHMARK(bm_decoder_pipeline);

void bm_analytic_yield(benchmark::State& state) {
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::balanced_gray,
                                            2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  for (auto _ : state) {
    benchmark::DoNotOptimize(yield::analytic_yield(design, plan));
  }
}
BENCHMARK(bm_analytic_yield);

void bm_fabrication_trial(benchmark::State& state) {
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const fab::process_simulator sim(design);
  rng random(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(random));
  }
}
BENCHMARK(bm_fabrication_trial);

void bm_operational_mc_trial(benchmark::State& state) {
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  yield::mc_options options;
  options.mode = yield::mc_mode::operational;
  options.trials = 1;
  rng random(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testkit::monte_carlo_yield(design, plan, options, random));
  }
}
BENCHMARK(bm_operational_mc_trial);

void bm_engine_trial_kernel(benchmark::State& state) {
  // The zero-allocation trial kernel alone: context and scratch amortized,
  // one fabricate-and-count per iteration.
  const device::technology tech = device::paper_technology();
  const codes::code code = codes::make_code(codes::code_type::gray, 2, 8);
  const decoder::decoder_design design(code, 20, tech);
  const auto plan = crossbar::plan_contact_groups(20, code.size(), tech);
  const yield::trial_context context(design, plan);
  yield::trial_scratch scratch;
  rng random(1);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    rng stream = random.fork_stream(trial++);
    benchmark::DoNotOptimize(context.run_trial(
        stream, scratch, yield::mc_mode::operational, tech.sigma_vt, nullptr));
  }
}
BENCHMARK(bm_engine_trial_kernel);

}  // namespace

BENCHMARK_MAIN();
