// bench_service: the sweep service's three headline wins, measured.
//
//   1. Result memoization -- a fully-cached repeat of a sweep request must
//      be >= 10x faster than the cold computation (it is a map lookup per
//      point instead of a Monte-Carlo run), and the repeat's payload must
//      be byte-identical to the cold one, served from memory AND from an
//      exported store imported as a fresh service's durable snapshot.
//   2. Adaptive trial budgets -- CI-width stopping (service/adaptive_budget)
//      spends trials where the yield estimate is noisy (the cliff) and
//      stops early where it is not, so the Figs. 7/8 grid completes within
//      the same confidence target for a fraction of the fixed-budget
//      trials. The harness reports trials used vs the fixed baseline.
//   3. Concurrent clients -- K parallel clients issuing a batched miss
//      workload through the job scheduler must deliver >= 1.5x the
//      serial-client throughput (best of 3): queued sweep jobs coalesce
//      into shared engine passes and amortize the per-request dispatch
//      round trip. The harness reports the coalescence ratio (jobs per
//      batching pass) and checks the responses stay byte-identical to the
//      serial run's.
//
// Exits nonzero when a payload identity, the >= 10x cached-repeat bound,
// or the >= 1.5x concurrent-throughput bound fails, so CI catches
// regressions; writes a JSON record (--json) for the bench-trajectory
// artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "service/sweep_service.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "util/error.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace nwdec;

double seconds_since(
    const std::chrono::steady_clock::time_point& started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

std::size_t get_size(const cli_parser& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  if (value < 0) {
    throw invalid_argument_error("--" + name + " cannot be negative");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_service",
                 "sweep-service benchmarks: cached-repeat speedup (memory "
                 "and persisted) and adaptive-budget trials saved on the "
                 "Figs. 7/8 grid");
  cli.add_int("trials", 1500, "fixed Monte-Carlo budget per grid point");
  cli.add_int("adaptive-cap", 20000,
              "trial cap per point for the adaptive section (also the "
              "fixed baseline it is compared against)");
  cli.add_double("target-half-width", 0.02,
                 "adaptive stopping target (Wilson CI half-width)");
  cli.add_int("threads", 0, "engine worker threads (0 = hardware)");
  cli.add_int("seed", 2009, "base seed");
  cli.add_string("json", "BENCH_service.json", "JSON record ('' = off)");
  cli.add_flag("quick", "CI smoke preset: 150 trials, 8000-trial cap");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  try {
    const bool quick = cli.get_flag("quick");
    const std::size_t trials = quick ? 150 : get_size(cli, "trials");
    const std::size_t adaptive_cap =
        quick ? 8000 : get_size(cli, "adaptive-cap");
    const double target = cli.get_double("target-half-width");

    bench::banner("bench_service",
                  "memoized sweep service + adaptive trial budgets");

    core::sweep_axes axes;
    axes.designs = core::yield_grid();
    axes.mc_trials = trials;

    service::service_options options;
    options.threads = get_size(cli, "threads");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    // ---------------------------------------------- 1. cached repeats
    service::sweep_service service(crossbar::crossbar_spec{},
                                   device::paper_technology(), options);

    auto started = std::chrono::steady_clock::now();
    const service::sweep_response cold = service.evaluate(axes);
    const double cold_seconds = seconds_since(started);

    started = std::chrono::steady_clock::now();
    const service::sweep_response warm = service.evaluate(axes);
    const double warm_seconds = seconds_since(started);

    const std::string cold_payload = service::to_json(cold);
    bool ok = true;
    bool payloads_identical = true;
    if (service::to_json(warm) != cold_payload) {
      std::cerr << "FAIL: warm payload differs from cold payload\n";
      payloads_identical = false;
    }
    if (warm.cached != warm.points.size()) {
      std::cerr << "FAIL: warm repeat recomputed "
                << warm.computed << " points\n";
      ok = false;
    }

    // Persisted: the store exported as a JSON document, then imported by
    // a fresh service as its durable snapshot.
    const std::string cache_path =
        (std::filesystem::temp_directory_path() / "BENCH_service_cache.json")
            .string();
    service.flush(cache_path, false);
    service::sweep_service restarted(crossbar::crossbar_spec{},
                                     device::paper_technology(), options);
    restarted.enable_durability(cache_path);
    started = std::chrono::steady_clock::now();
    const service::sweep_response persisted = restarted.evaluate(axes);
    const double persisted_seconds = seconds_since(started);
    std::remove(cache_path.c_str());
    std::remove((cache_path + ".log").c_str());
    if (service::to_json(persisted) != cold_payload) {
      std::cerr << "FAIL: persisted payload differs from cold payload\n";
      payloads_identical = false;
    }
    ok = ok && payloads_identical;

    const double speedup =
        warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
    const double persisted_speedup =
        persisted_seconds > 0.0 ? cold_seconds / persisted_seconds : 0.0;
    std::cout << "cached repeat (" << cold.points.size() << " points, "
              << trials << " trials each):\n"
              << "  cold      " << format_fixed(cold_seconds * 1e3, 2)
              << " ms\n"
              << "  warm      " << format_fixed(warm_seconds * 1e3, 3)
              << " ms  (" << format_fixed(speedup, 1) << "x)\n"
              << "  persisted " << format_fixed(persisted_seconds * 1e3, 3)
              << " ms  (" << format_fixed(persisted_speedup, 1) << "x)\n"
              << "  payloads byte-identical: "
              << (payloads_identical ? "yes" : "NO") << "\n\n";
    if (speedup < 10.0) {
      std::cerr << "FAIL: cached repeat speedup " << format_fixed(speedup, 1)
                << "x is below the 10x bound\n";
      ok = false;
    }

    // ------------------------------------------- 2. adaptive budgets
    service::adaptive_options adaptive;
    adaptive.target_half_width = target;
    service::service_options adaptive_options_ = options;
    adaptive_options_.adaptive = adaptive;
    service::sweep_service adaptive_service(
        crossbar::crossbar_spec{}, device::paper_technology(),
        adaptive_options_);

    core::sweep_axes capped = axes;
    capped.mc_trials = adaptive_cap;
    started = std::chrono::steady_clock::now();
    const service::sweep_response adaptive_run =
        adaptive_service.evaluate(capped);
    const double adaptive_seconds = seconds_since(started);

    std::size_t used_total = 0;
    text_table table({"design", "MC Y", "CI half-width", "trials used",
                      "of cap", "saved"});
    for (const service::sweep_response_entry& entry : adaptive_run.points) {
      const core::design_evaluation& e = entry.result->evaluation;
      const std::size_t used = entry.result->mc_trials_used;
      used_total += used;
      const double half_width = wilson_half_width(
          e.mc_nanowire_yield * static_cast<double>(used),
          static_cast<double>(used));
      table.add_row({entry.result->request.design.label(),
                     format_percent(e.mc_nanowire_yield),
                     format_fixed(half_width, 4), format_count(used),
                     format_count(adaptive_cap),
                     format_percent(1.0 - static_cast<double>(used) /
                                              static_cast<double>(
                                                  adaptive_cap))});
    }
    const std::size_t baseline_total =
        adaptive_cap * adaptive_run.points.size();
    const double saved_percent =
        100.0 * (1.0 - static_cast<double>(used_total) /
                           static_cast<double>(baseline_total));
    std::cout << "adaptive budgets (target half-width "
              << format_fixed(target, 3) << ", cap "
              << format_count(adaptive_cap) << " trials/point, "
              << format_fixed(adaptive_seconds, 2) << " s):\n";
    table.print(std::cout);
    std::cout << "  total " << format_count(used_total) << " of "
              << format_count(baseline_total) << " fixed-baseline trials ("
              << format_fixed(saved_percent, 1) << "% saved)\n";

    // --------------------------------- 3. concurrent clients vs serial
    // A batched miss workload: many small single-point requests, every
    // point distinct (all store misses). The serial client issues them one
    // at a time -- the legacy daemon pattern -- while K clients issue the
    // same set concurrently; the scheduler coalesces whatever queues up.
    const std::size_t client_count = 8;
    const std::size_t per_client = quick ? 50 : 150;
    std::vector<std::string> requests;
    requests.reserve(client_count * per_client);
    for (std::size_t r = 0; r < client_count * per_client; ++r) {
      json_writer request(json_writer::style::compact);
      request.begin_object()
          .field("id", r)
          .field("kind", "sweep");
      request.key("codes").begin_array().value("BGC").end_array();
      request.key("lengths").begin_array().value(8).end_array();
      request.key("sigmas_vt")
          .begin_array()
          .value(0.02 + 1e-6 * static_cast<double>(r))
          .end_array();
      requests.push_back(request.end_object().str());
    }

    double serial_seconds = 1e300;
    double concurrent_seconds = 1e300;
    double coalescence = 0.0;
    std::vector<std::string> serial_responses;
    std::vector<std::string> concurrent_responses;
    bool concurrent_identical = true;
    for (int round = 0; round < 3; ++round) {  // best of 3, both modes
      {
        service::sweep_service fresh(crossbar::crossbar_spec{},
                                     device::paper_technology(), options);
        api::dispatcher serial_dispatcher(fresh, {1, 16});
        std::vector<std::string> responses(requests.size());
        started = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < requests.size(); ++r) {
          responses[r] = serial_dispatcher.handle_line(requests[r]);
        }
        serial_seconds = std::min(serial_seconds, seconds_since(started));
        serial_responses = std::move(responses);
      }
      {
        service::sweep_service fresh(crossbar::crossbar_spec{},
                                     device::paper_technology(), options);
        api::dispatcher concurrent_dispatcher(
            fresh, {1, client_count * per_client + 16});
        std::vector<std::string> responses(requests.size());
        started = std::chrono::steady_clock::now();
        std::vector<std::thread> clients;
        clients.reserve(client_count);
        for (std::size_t c = 0; c < client_count; ++c) {
          clients.emplace_back([&, c] {
            // The async pattern the job API exists for: burst-submit the
            // client's whole workload, then fetch every result. The
            // submission flood lets the batching stage coalesce deeply.
            std::vector<std::string> fetches(per_client);
            for (std::size_t k = 0; k < per_client; ++k) {
              const std::string submitted = concurrent_dispatcher.handle_line(
                  requests[c * per_client + k].substr(0, 1) +
                  "\"async\":true," +
                  requests[c * per_client + k].substr(1));
              const json_value parsed =
                  json_parse(submitted.substr(0, submitted.size() - 1));
              fetches[k] = R"({"kind":"status","wait":true,"job":)" +
                           std::to_string(static_cast<std::uint64_t>(
                               parsed.at("job").as_number())) +
                           "}";
            }
            for (std::size_t k = 0; k < per_client; ++k) {
              responses[c * per_client + k] =
                  concurrent_dispatcher.handle_line(fetches[k]);
            }
          });
        }
        for (std::thread& client : clients) client.join();
        const double wall = seconds_since(started);
        if (wall < concurrent_seconds) {
          concurrent_seconds = wall;
          const api::scheduler_stats jobs =
              concurrent_dispatcher.scheduler().stats();
          coalescence = jobs.sweep_batches > 0
                            ? static_cast<double>(jobs.sweep_jobs_batched) /
                                  static_cast<double>(jobs.sweep_batches)
                            : 0.0;
        }
        concurrent_responses = std::move(responses);
      }
    }
    // Transport/scheduling must never leak into payloads: every async
    // fetch carries the byte-identical "result" member the serial sweep
    // response carried (wrappers differ by design: sweep vs status).
    const auto result_of = [](const std::string& line) {
      const std::size_t at = line.find("\"result\":");
      return at == std::string::npos ? std::string() : line.substr(at);
    };
    for (std::size_t r = 0; r < requests.size(); ++r) {
      if (result_of(serial_responses[r]).empty() ||
          result_of(serial_responses[r]) !=
              result_of(concurrent_responses[r])) {
        concurrent_identical = false;
        break;
      }
    }
    if (!concurrent_identical) {
      std::cerr << "FAIL: concurrent result payloads differ from serial\n";
      ok = false;
    }

    const double concurrent_speedup =
        concurrent_seconds > 0.0 ? serial_seconds / concurrent_seconds : 0.0;
    // The 1.5x bound needs hardware to overlap on: client threads and the
    // engine's point sharding both collapse onto one core on a 1-core box,
    // where coalescing can only shave dispatch overhead -- there the gate
    // degrades to "concurrency must not cost throughput" (0.9, leaving
    // 10% for timing noise; same caveat culture as the ROADMAP's
    // thread-scaling notes).
    const std::size_t cores = thread_budget();
    const double speedup_bound = cores >= 2 ? 1.5 : 0.9;
    std::cout << "\nconcurrent clients (" << client_count << " clients x "
              << per_client << " single-point miss requests, best of 3, "
              << cores << " core" << (cores == 1 ? "" : "s") << "):\n"
              << "  serial     " << format_fixed(serial_seconds * 1e3, 1)
              << " ms\n"
              << "  concurrent " << format_fixed(concurrent_seconds * 1e3, 1)
              << " ms  (" << format_fixed(concurrent_speedup, 2) << "x, "
              << format_fixed(coalescence, 1) << " jobs/batch, bound "
              << format_fixed(speedup_bound, 2) << "x)\n"
              << "  responses byte-identical to serial: "
              << (concurrent_identical ? "yes" : "NO") << "\n";
    if (concurrent_speedup < speedup_bound) {
      std::cerr << "FAIL: concurrent-client speedup "
                << format_fixed(concurrent_speedup, 2)
                << "x is below the " << format_fixed(speedup_bound, 2)
                << "x bound\n";
      ok = false;
    }

    // ------------------------------------------------- JSON record
    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      json_writer json;
      json.begin_object()
          .field("bench", "service")
          .field("points", cold.points.size())
          .field("trials", trials)
          .field("seed", options.seed)
          .field("threads", options.threads)
          .field("hardware_concurrency", thread_budget())
          .field("simd_path", cpu::simd_path_name(cpu::active_path()))
          .field("cold_seconds", cold_seconds)
          .field("warm_seconds", warm_seconds)
          .field("warm_speedup", speedup)
          .field("persisted_seconds", persisted_seconds)
          .field("persisted_speedup", persisted_speedup)
          .field("payloads_identical", payloads_identical);
      json.key("adaptive")
          .begin_object()
          .field("target_half_width", target)
          .field("cap", adaptive_cap)
          .field("seconds", adaptive_seconds)
          .field("trials_used", used_total)
          .field("fixed_baseline", baseline_total)
          .field("saved_percent", saved_percent)
          .end_object();
      json.key("concurrent")
          .begin_object()
          .field("clients", client_count)
          .field("requests", requests.size())
          .field("serial_seconds", serial_seconds)
          .field("concurrent_seconds", concurrent_seconds)
          .field("speedup", concurrent_speedup)
          .field("speedup_bound", speedup_bound)
          .field("cores", cores)
          .field("coalescence_jobs_per_batch", coalescence)
          .field("responses_identical", concurrent_identical)
          .end_object();
      const std::string document = json.end_object().str();
      std::ofstream out(json_path);
      if (!out) throw error("cannot open '" + json_path + "' for writing");
      out << document;
      std::cout << "\nwrote " << json_path << "\n";
    }

    if (!ok) return 1;
    return 0;
  } catch (const std::exception& failure) {
    std::cerr << "bench_service: " << failure.what() << "\n";
    return 1;
  }
}
