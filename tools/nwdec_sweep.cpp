// nwdec_sweep: the design-space sweep CLI over core::sweep_engine.
//
// Grid spec: every axis is a comma-separated list; the grid is the
// cartesian product of (codes x lengths x nanowires x sigmas), each point
// carrying the same Monte-Carlo trial budget (0 = analytic only) and
// optional structural defect rates. Examples:
//
//   $ nwdec_sweep --codes TC,GC,BGC --lengths 6,8,10 --trials 400
//   $ nwdec_sweep --codes BGC,AHC --lengths 10 --nanowires 20,40,80
//         --sigmas-mv 40,50,65 --trials 1000 --threads 8 --csv sweep.csv
//   $ nwdec_sweep --quick          # the Figs. 7/8 grid, smoke trials (CI)
//
// Reports go to stdout (ranked table), --json (sweep_engine JSON document,
// the CI bench-trajectory artifact), and --csv (one row per point).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "codes/code_space.h"
#include "core/experiments.h"
#include "core/sweep_engine.h"
#include "service/sweep_service.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace nwdec;

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

std::vector<std::size_t> parse_sizes(const std::string& text,
                                     const std::string& what) {
  std::vector<std::size_t> out;
  for (const std::string& item : split_list(text)) {
    // stoull silently wraps negatives to huge values; demand plain digits.
    const bool digits_only =
        !item.empty() &&
        item.find_first_not_of("0123456789") == std::string::npos;
    try {
      if (!digits_only) throw std::invalid_argument(item);
      out.push_back(static_cast<std::size_t>(std::stoull(item)));
    } catch (const std::exception&) {
      throw invalid_argument_error("bad " + what + " value '" + item + "'");
    }
  }
  return out;
}

std::vector<double> parse_doubles(const std::string& text,
                                  const std::string& what) {
  std::vector<double> out;
  for (const std::string& item : split_list(text)) {
    try {
      out.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw invalid_argument_error("bad " + what + " value '" + item + "'");
    }
  }
  return out;
}

// get_int + wrap guard: a negative scalar flag must fail loudly, not wrap
// through size_t into an effectively unbounded run.
std::size_t get_size(const cli_parser& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  if (value < 0) {
    throw invalid_argument_error("--" + name + " cannot be negative (got " +
                                 std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw error("cannot open '" + path + "' for writing");
  out << content;
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("nwdec_sweep",
                 "design-space sweeps over the unified multithreaded engine "
                 "(grid = codes x lengths x nanowires x sigmas)");
  cli.add_string("codes", "TC,GC,BGC,HC,AHC",
                 "comma list of code families (TC/GC/BGC/HC/AHC)");
  cli.add_string("lengths", "8", "comma list of full code lengths M");
  cli.add_int("radix", 2, "logic radix for every design");
  cli.add_string("nanowires", "",
                 "comma list of half-cave sizes N ('' = platform default)");
  cli.add_string("sigmas-mv", "",
                 "comma list of process sigmas [mV] ('' = technology default)");
  cli.add_int("trials", 0, "Monte-Carlo trials per point (0 = analytic only)");
  cli.add_string("mode", "operational", "MC criterion: window | operational");
  cli.add_double("broken", 0.0, "broken-nanowire probability (defect axis)");
  cli.add_double("bridge", 0.0, "bridged-nanowire probability (defect axis)");
  cli.add_int("raw-kb", 16, "raw crossbar capacity [kB]");
  cli.add_int("threads", 0, "worker threads (0 = hardware)");
  cli.add_int("seed", 2009,
              "base seed (each point's MC stream is a pure function of the "
              "seed and the point itself)");
  cli.add_string("json", "SWEEP_report.json", "JSON report path ('' = off)");
  cli.add_string("csv", "", "CSV report path ('' = off)");
  cli.add_string("cache", "",
                 "durable result store (service::durable_store snapshot, "
                 "write-ahead log at <path>.log): persisted point results "
                 "are recovered before the sweep -- so repeated sweeps skip "
                 "every previously computed point -- and the merged store "
                 "is checkpointed after it ('' = no cache). A plain JSON "
                 "store export imports in place. The file is only reused "
                 "under the same --seed/--mode/--raw-kb");
  cli.add_double("min-half-width", 0.0,
                 "per-point Wilson CI target (0 = fixed --trials budget): "
                 "each MC point stops at the first budget rung meeting it, "
                 "and cached points that miss it are topped up from their "
                 "persisted (mean, trials, M2) instead of recomputed");
  cli.add_flag("quick",
               "smoke preset for CI: the paper's Figs. 7/8 grid, 150 trials");
  try {
    if (!cli.parse(argc, argv)) return 0;

    core::sweep_axes axes;
    if (cli.get_flag("quick")) {
      axes.designs = core::yield_grid();
      axes.mc_trials = 150;
    } else {
      const unsigned radix = static_cast<unsigned>(get_size(cli, "radix"));
      for (const std::string& name : split_list(cli.get_string("codes"))) {
        const codes::code_type type = codes::parse_code_type(name);
        for (const std::size_t length :
             parse_sizes(cli.get_string("lengths"), "--lengths")) {
          axes.designs.push_back({type, radix, length});
        }
      }
      axes.nanowires = parse_sizes(cli.get_string("nanowires"), "--nanowires");
      for (const double sigma_mv :
           parse_doubles(cli.get_string("sigmas-mv"), "--sigmas-mv")) {
        NWDEC_EXPECTS(sigma_mv >= 0.0,
                      "--sigmas-mv values cannot be negative");
        axes.sigmas_vt.push_back(sigma_mv * 1e-3);
      }
      axes.mc_trials = get_size(cli, "trials");
      const double broken = cli.get_double("broken");
      const double bridge = cli.get_double("bridge");
      if (broken > 0.0 || bridge > 0.0) {
        axes.defects.push_back(fab::defect_params{broken, bridge});
      }
    }
    NWDEC_EXPECTS(!axes.designs.empty(),
                  "the grid needs at least one (code, length) design");

    crossbar::crossbar_spec spec;
    spec.raw_bits = get_size(cli, "raw-kb") * 1024 * 8;
    const device::technology tech = device::paper_technology();

    core::sweep_engine_options options;
    options.threads = get_size(cli, "threads");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.mode = cli.get_string("mode") == "window"
                       ? yield::mc_mode::window
                       : yield::mc_mode::operational;

    const std::string cache_path = cli.get_string("cache");
    const double min_half_width = cli.get_double("min-half-width");
    NWDEC_EXPECTS(min_half_width >= 0.0 && min_half_width < 1.0,
                  "--min-half-width must lie in [0, 1)");
    core::sweep_engine_report report;
    if (cache_path.empty() && min_half_width == 0.0) {
      const core::sweep_engine engine(spec, tech);
      report = engine.run(axes, options);
    } else {
      // Ride the sweep service's result store: previously computed points
      // come back from the durable cache (or are topped up toward a
      // tighter --min-half-width), only the rest hit the engine, and the
      // merged store is checkpointed for the next invocation. Results are
      // identical to the direct path (same seed/mode/point fingerprints).
      service::service_options service_options;
      service_options.threads = options.threads;
      service_options.seed = options.seed;
      service_options.mode = options.mode;
      service::sweep_service service(spec, tech, service_options);
      // A stale or incompatible cache file must not block the sweep:
      // recovery quarantines it, the sweep runs cold, and the checkpoint
      // writes fresh results (same policy as the daemon).
      if (!cache_path.empty()) {
        const service::recovery_report recovered =
            service.enable_durability(cache_path);
        for (const std::string& warning : recovered.warnings) {
          std::cerr << "nwdec_sweep: cache " << cache_path << ": " << warning
                    << "\n";
        }
        if (service.store().size() > 0) {
          std::cout << "cache: warmed " << service.store().size()
                    << " results from " << cache_path << "\n";
        }
      }
      const service::sweep_response response =
          service.evaluate(axes, min_half_width);
      if (!cache_path.empty()) {
        service.flush(cache_path, false);
        std::cout << "cache: " << response.cached << " points served from "
                  << cache_path << ", " << response.computed << " computed";
        if (response.topped_up > 0) {
          std::cout << ", " << response.topped_up << " topped up";
        }
        std::cout << "; store now holds " << service.store().size()
                  << " results\n";
      }

      // Synthesize the engine-report shape so every output path (table,
      // JSON, CSV) is shared with the direct run.
      report.mode = service_options.mode;
      report.threads =
          options.threads != 0 ? options.threads : thread_budget();
      report.seed = options.seed;
      report.raw_bits = spec.raw_bits;
      report.default_nanowires = spec.nanowires_per_half_cave;
      report.default_sigma_vt = tech.sigma_vt;
      report.cache = service.engine().cache_stats();
      report.entries.reserve(response.points.size());
      for (const service::sweep_response_entry& entry : response.points) {
        core::sweep_engine_entry synthesized;
        synthesized.request = entry.result.request;
        synthesized.evaluation = entry.result.evaluation;
        synthesized.mc_trials_used = entry.result.mc_trials_used;
        report.entries.push_back(std::move(synthesized));
      }
    }

    std::cout << "design-space sweep: " << report.entries.size()
              << " grid points on " << report.threads << " workers (seed "
              << report.seed << ")\n\n";
    text_table table({"design", "N", "sigma [mV]", "Omega", "Phi", "Y^2",
                      "bit area [nm^2]", "MC Y"});
    for (const core::sweep_engine_entry& entry : report.entries) {
      const core::design_evaluation& e = entry.evaluation;
      table.add_row(
          {entry.request.design.label(),
           format_count(entry.request.nanowires),
           format_fixed(entry.request.sigma_vt * 1e3, 0),
           format_count(e.code_space), format_count(e.fabrication_steps),
           format_percent(e.crosspoint_yield),
           format_fixed(e.bit_area_nm2, 1),
           e.has_monte_carlo ? format_percent(e.mc_nanowire_yield) : "-"});
    }
    table.print(std::cout);

    std::cout << "\ncache: " << report.cache.designs_built
              << " designs built, " << report.cache.design_reuses
              << " reused; " << report.cache.plans_built
              << " contact plans built, " << report.cache.plan_reuses
              << " reused\n";

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) write_file(json_path, core::to_json(report));
    const std::string csv_path = cli.get_string("csv");
    if (!csv_path.empty()) write_file(csv_path, core::to_csv(report));
    return 0;
  } catch (const std::exception& failure) {
    std::cerr << "nwdec_sweep: " << failure.what() << "\n";
    return 1;
  }
}
