#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "api/dispatch.h"
#include "api/types.h"
#include "check.h"
#include "codes/factory.h"
#include "core/sweep_engine.h"
#include "crossbar/contact_groups.h"
#include "daemon.h"
#include "decoder/decoder_design.h"
#include "device/tech_params.h"
#include "service/sweep_service.h"
#include "util/json.h"
#include "util/rng.h"
#include "yield/monte_carlo_yield.h"
#include "yield/trial_context.h"

namespace perfbench {

namespace {

using namespace nwdec;
namespace fs = std::filesystem;

constexpr std::uint64_t kDaemonSeed = 2009;  // nwdec_service --seed default
constexpr int kLegRepeats = 3;  ///< yield/kernel legs: fastest of these
constexpr std::size_t kKernelProbeTrials = 2048;
constexpr std::size_t kYieldProbeTrials = 16384;
constexpr std::size_t kSmallCallTrials = 64;
constexpr int kSmallCalls = 30;

struct span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  long request = -1;
  bool reported = false;  ///< a duration the program reported, not a call
};

// In-memory span recorder. Switched off, every call is a no-op returning
// -1: the untraced pass makes the same calls without reading the clock
// or storing anything.
class tracer {
 public:
  explicit tracer(bool on) : on_(on) {}

  long open(const char* name, long parent, long request) {
    if (!on_) return -1;
    spans_.push_back({name, now_seconds(), 0.0, parent, request, false});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_seconds();
  }
  /// A child interval the program timed itself inside `parent` (its own
  /// trace): only the duration is known, so it is anchored at the
  /// parent's start.
  void reported(const char* name, long parent, double seconds) {
    if (!on_ || parent < 0) return;
    const span outer = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back({name, outer.start, outer.start + seconds, parent,
                      outer.request, true});
  }
  double seconds(long id) const {
    if (id < 0) return 0.0;
    const span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// Summed durations of the direct children of `parent` named `name`.
  double children(long parent, const std::string& name) const {
    double sum = 0.0;
    for (const span& s : spans_) {
      if (s.parent == parent && s.name == name) sum += s.end - s.start;
    }
    return sum;
  }
  const std::vector<span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<span> spans_;
};

// A design's immutable Monte-Carlo state, built outside any span.
struct prepared {
  prepared(const core::sweep_request& point, const device::technology& tech)
      : design(codes::make_code(point.design.type, point.design.radix,
                                point.design.length),
               point.nanowires, tech),
        plan(crossbar::plan_contact_groups(point.nanowires,
                                           design.code().size(), tech)),
        context(design, plan) {}

  decoder::decoder_design design;
  crossbar::contact_group_plan plan;
  yield::trial_context context;
};

class context_cache {
 public:
  const prepared& get(const core::sweep_request& point) {
    const auto key = std::make_tuple(static_cast<int>(point.design.type),
                                     point.design.length, point.nanowires);
    auto found = entries_.find(key);
    if (found == entries_.end()) {
      found = entries_
                  .emplace(key, std::make_unique<prepared>(
                                    point, device::paper_technology()))
                  .first;
    }
    return *found->second;
  }

 private:
  std::map<std::tuple<int, std::size_t, std::size_t>,
           std::unique_ptr<prepared>>
      entries_;
};

void run_blocks(const yield::trial_context& context, std::uint64_t key,
                std::size_t trials, double sigma, yield::trial_scratch& scratch,
                std::vector<std::uint32_t>& good) {
  const std::size_t block = yield::mc_default_block_size;
  good.resize(block);
  for (std::size_t first = 0; first < trials; first += block) {
    context.run_trial_block(key, first, std::min(block, trials - first),
                            scratch, yield::mc_mode::operational, sigma,
                            nullptr, good.data());
  }
}

void run_leg(const yield::trial_context& context,
             const core::sweep_request& point, std::size_t threads,
             std::size_t trials) {
  yield::mc_options options;
  options.mode = yield::mc_mode::operational;
  options.trials = trials;
  options.threads = threads;
  options.sigma_vt = point.sigma_vt;
  yield::mc_run_state state;
  yield::monte_carlo_yield_resume(context, options, core::fingerprint(point),
                                  state);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

std::string status_line(std::uint64_t job, bool wait) {
  return "{\"kind\":\"status\",\"job\":" + std::to_string(job) +
         (wait ? ",\"wait\":true}" : "}");
}

std::uint64_t job_of(const std::string& answer) {
  return static_cast<std::uint64_t>(json_parse(answer).at("job").as_number());
}

// The evaluation time a terminal status reports in its trace: store
// lookup, engine and store insert (the WAL included).
double evaluation_seconds(const std::string& status) {
  const json_value trace = json_parse(status).at("trace");
  return 1e-3 * (trace.at("store_lookup_ms").as_number() +
                 trace.at("engine_ms").as_number() +
                 trace.at("store_insert_ms").as_number());
}

void require_ok(const std::string& answer, const std::string& line) {
  if (answer.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("in-process replay failed on " + line + ": " +
                             answer);
  }
}

// Span ids and counters of one replay pass.
struct pass_record {
  double wall = 0.0;
  std::vector<long> parse, request, call, probe;
  std::vector<bool> inline_answer;
  std::vector<double> engine;  ///< per request: eval_trace engine seconds
  std::vector<long> core_runs;
  std::size_t core_points = 0;
  std::vector<double> leg_yield, leg_kernel;  ///< fastest repeat per leg
  std::vector<service::eval_trace> evaluations;
  long recover = -1;
  service::recovery_report recovered;
  double store_hit_ratio = 0.0;
  core::sweep_cache_stats engine_cache;
  std::vector<double> design_build;
  std::vector<long> kernel_probe, small_calls;
  std::vector<double> kernel_cells, kernel_bytes;
  long yield_1t = -1;
  long yield_mt = -1;
  std::size_t yield_threads = 1;
  /// Per probe line and repeat: (submission span, status-wait span).
  std::vector<std::vector<std::pair<long, long>>> inprocess;
};

// A single-threaded replica of the daemon's service, recovered from a
// private copy of the seeded store when the workload has one. The
// recovery is traced into `record` when one is given.
std::unique_ptr<service::sweep_service> replica(const std::string& seeded,
                                                const fs::path& dir,
                                                tracer& t,
                                                pass_record* record) {
  service::service_options options;
  options.threads = 1;
  auto service = std::make_unique<service::sweep_service>(
      daemon_spec(), device::paper_technology(), options);
  if (seeded.empty()) return service;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "store.json";
  fs::copy_file(seeded, target);
  if (fs::exists(seeded + ".log")) {
    fs::copy_file(seeded + ".log", target.string() + ".log");
  }
  const long id = record != nullptr ? t.open("service.recover", -1, -1) : -1;
  const service::recovery_report report =
      service->enable_durability(target.string());
  t.close(id);
  if (record != nullptr) {
    record->recover = id;
    record->recovered = report;
  }
  return service;
}

pass_record replay_pass(const workload& load,
                        const std::vector<request_spec>& lines,
                        const std::vector<request_spec>& probes,
                        const std::string& seeded, const fs::path& scratch,
                        tracer& t) {
  pass_record record;
  const double started = now_seconds();
  const std::size_t n = lines.size();
  const bool async = load.shape().subscribe;
  record.parse.assign(n, -1);
  record.request.assign(n, -1);
  record.call.assign(n, -1);
  record.probe.assign(n, -1);
  record.inline_answer.assign(n, false);
  record.engine.assign(n, 0.0);

  // One replica per layer, each recovered from its own copy of the seeded
  // store, so every layer sees the same store state at request r.
  auto api_service = replica(seeded, scratch / "api", t, nullptr);
  api::dispatcher::options dispatch_options;
  dispatch_options.workers = 1;
  auto dispatcher =
      std::make_unique<api::dispatcher>(*api_service, dispatch_options);
  auto service = replica(seeded, scratch / "service", t, &record);
  const core::sweep_engine engine(daemon_spec(), device::paper_technology());
  core::sweep_engine_options engine_options;
  engine_options.threads = 1;
  engine_options.seed = kDaemonSeed;
  engine_options.mode = yield::mc_mode::operational;
  context_cache contexts;
  yield::trial_scratch scratch_buffers;
  std::vector<std::uint32_t> good;
  std::vector<std::vector<core::sweep_request>> all_points(n);

  // Request by request, so that the layers of one request run close
  // together in time.
  for (std::size_t r = 0; r < n; ++r) {
    const std::string& line = lines[r].line;
    const long request = static_cast<long>(r);

    // api: the dispatcher, one worker, as a client sees it (an async line
    // is submitted, then awaited). A job's terminal status reports the
    // evaluation time inside the request.
    record.parse[r] = t.open("api.parse", -1, request);
    api::parse_request_line(line);
    t.close(record.parse[r]);
    const api::scheduler_stats before = dispatcher->scheduler().stats();
    record.request[r] = t.open("api.request", -1, request);
    std::string answer = dispatcher->handle_line(line);
    if (async) {
      require_ok(answer, line);
      answer = dispatcher->handle_line(status_line(job_of(answer), true));
    }
    t.close(record.request[r]);
    require_ok(answer, line);
    const api::scheduler_stats after = dispatcher->scheduler().stats();
    record.inline_answer[r] = after.answered_inline > before.answered_inline;
    if (record.request[r] >= 0 && !record.inline_answer[r]) {
      // Job ids are minted in submission order from 1.
      const std::string status =
          async ? answer
                : dispatcher->handle_line(status_line(after.submitted, false));
      t.reported("api.job_evaluation", record.request[r],
                 evaluation_seconds(status));
    }

    // service: the admission probe, then evaluate() when it declines.
    // The scheduler never probes an async submission, so that probe is
    // timed beside the call, not inside it.
    const std::vector<service::point_query> queries = queries_of(line);
    for (const service::point_query& query : queries) {
      all_points[r].push_back(query.request);
    }
    record.call[r] = t.open("service.call", record.request[r], request);
    record.probe[r] =
        t.open("service.probe", async ? -1 : record.call[r], request);
    const std::optional<service::sweep_response> served =
        service->try_serve_cached(queries);
    t.close(record.probe[r]);
    std::vector<core::sweep_request> computed;
    if (!served.has_value() || async) {
      service::eval_trace trace;
      const long evaluate = t.open("service.evaluate", record.call[r], request);
      const service::sweep_response response =
          service->evaluate(queries, {}, &trace);
      t.close(evaluate);
      t.reported("service.engine", evaluate, trace.engine_seconds);
      t.reported("service.wal", evaluate,
                 trace.wal_append_seconds + trace.wal_rotation_seconds);
      record.engine[r] = trace.engine_seconds;
      record.evaluations.push_back(trace);
      for (std::size_t k = 0; k < queries.size(); ++k) {
        if (response.points[k].source == service::point_source::computed) {
          computed.push_back(queries[k].request);
        }
      }
    }
    t.close(record.call[r]);
    if (computed.empty()) continue;

    // core: the engine on the points the service computed; its report
    // carries each point's Monte-Carlo wall.
    const long run = t.open("core.run", record.call[r], request);
    const core::sweep_engine_report report =
        engine.run(computed, engine_options);
    t.close(run);
    record.core_runs.push_back(run);
    record.core_points += computed.size();

    // yield and kernel: the same Monte-Carlo legs, one layer down at a
    // time, each the fastest of a few repeats.
    for (const core::sweep_engine_entry& entry : report.entries) {
      const core::sweep_request& point = entry.request;
      if (point.mc_trials == 0) continue;
      t.reported("core.mc_leg", run, entry.mc_seconds);
      const prepared& built = contexts.get(point);
      double fastest_leg = 1e300, fastest_blocks = 1e300;
      for (int k = 0; k < kLegRepeats; ++k) {
        const long mc = t.open("yield.mc", run, request);
        run_leg(built.context, point, 1, point.mc_trials);
        t.close(mc);
        const long blocks = t.open("kernel.blocks", mc, request);
        run_blocks(built.context, core::fingerprint(point), point.mc_trials,
                   point.sigma_vt, scratch_buffers, good);
        t.close(blocks);
        fastest_leg = std::min(fastest_leg, t.seconds(mc));
        fastest_blocks = std::min(fastest_blocks, t.seconds(blocks));
      }
      record.leg_yield.push_back(fastest_leg);
      record.leg_kernel.push_back(fastest_blocks);
    }
  }
  const service::store_stats store = service->stats().store;
  const std::size_t lookups = store.hits + store.misses;
  record.store_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(store.hits) /
                         static_cast<double>(lookups);

  // When the store answered everything, the engine never ran on the
  // blocking chain; time it on every point anyway, for its capacity.
  if (record.core_runs.empty()) {
    for (std::size_t r = 0; r < n; ++r) {
      const long run = t.open("core.run", -1, static_cast<long>(r));
      engine.run(all_points[r], engine_options);
      t.close(run);
      record.core_runs.push_back(run);
      record.core_points += all_points[r].size();
    }
  }
  record.engine_cache = engine.cache_stats();

  // In-process cost of the transport probe lines, to subtract from the
  // daemon's round trips: the submission alone (what one HTTP POST
  // carries) and, for async lines, submission plus the wait for the
  // terminal state (what a TCP subscriber waits for).
  for (std::size_t p = 0; p < probes.size(); ++p) {
    std::vector<std::pair<long, long>> repeats;
    for (int k = 0; k <= kProbeRepeats; ++k) {
      const long submit =
          t.open("api.inprocess_submit", -1, static_cast<long>(p));
      const std::string answer = dispatcher->handle_line(probes[p].line);
      t.close(submit);
      long wait = -1;
      if (async) {
        wait = t.open("api.inprocess_wait", -1, static_cast<long>(p));
        dispatcher->handle_line(status_line(job_of(answer), true));
        t.close(wait);
      }
      if (k > 0) repeats.emplace_back(submit, wait);  // the first warms up
    }
    record.inprocess.push_back(repeats);
  }
  dispatcher.reset();  // joins the scheduler's worker

  // Design build cost: a cold analytic point on a fresh engine, minus the
  // same point warm.
  {
    const core::sweep_engine fresh(daemon_spec(), device::paper_technology());
    std::map<std::pair<int, std::size_t>, bool> seen;
    for (const auto& points : all_points) {
      for (core::sweep_request point : points) {
        const auto design = std::make_pair(
            static_cast<int>(point.design.type), point.design.length);
        if (!seen.emplace(design, true).second) continue;
        point.mc_trials = 0;
        const long cold = t.open("core.design_cold", -1, -1);
        fresh.run({point}, engine_options);
        t.close(cold);
        const long warm = t.open("core.design_warm", -1, -1);
        fresh.run({point}, engine_options);
        t.close(warm);
        record.design_build.push_back(t.seconds(cold) - t.seconds(warm));
      }
    }
  }

  // Layer capacity probes on the Figs. 7/8 design set of this seed: the
  // kernel per design, single thread, default block; the yield entry at
  // one thread and at the daemon's engine thread count.
  const workload designs(workload_kind::fig78_cold, load.seed());
  std::vector<core::sweep_request> fig78_points;
  for (const service::point_query& query :
       queries_of(designs.request(0, 0).line)) {
    fig78_points.push_back(engine.resolve(query.request));
  }
  for (const core::sweep_request& point : fig78_points) {
    const prepared& built = contexts.get(point);
    const double nanowires =
        static_cast<double>(built.context.nanowire_count());
    const double cells = nanowires * static_cast<double>(point.design.length);
    // Slab bytes one trial lane touches: V_T cells, survival mask,
    // margins, verdicts, its good count, and its generator state.
    record.kernel_bytes.push_back(8.0 * (cells + 3.0 * nanowires + 2.0) +
                                  static_cast<double>(sizeof(block_rng)));
    record.kernel_cells.push_back(cells * kKernelProbeTrials);
    record.kernel_probe.push_back(t.open("kernel.probe", -1, -1));
    run_blocks(built.context, core::fingerprint(point), kKernelProbeTrials,
               point.sigma_vt, scratch_buffers, good);
    t.close(record.kernel_probe.back());
  }
  const core::sweep_request& point = fig78_points[fig78_points.size() / 2];
  const yield::trial_context& context = contexts.get(point).context;
  record.yield_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  record.yield_1t = t.open("yield.probe_1t", -1, -1);
  run_leg(context, point, 1, kYieldProbeTrials);
  t.close(record.yield_1t);
  record.yield_mt = t.open("yield.probe_mt", -1, -1);
  run_leg(context, point, record.yield_threads, kYieldProbeTrials);
  t.close(record.yield_mt);
  for (int k = 0; k < kSmallCalls; ++k) {
    record.small_calls.push_back(t.open("yield.small_call", -1, -1));
    run_leg(context, point, record.yield_threads, kSmallCallTrials);
    t.close(record.small_calls.back());
  }
  record.wall = now_seconds() - started;
  return record;
}

void write_spans(const tracer& t, const std::string& path) {
  std::ofstream out(path);
  for (std::size_t id = 0; id < t.spans().size(); ++id) {
    const span& s = t.spans()[id];
    json_writer json(json_writer::style::compact);
    json.begin_object()
        .field("id", id)
        .field("name", s.name)
        .field("start", s.start)
        .field("end", s.end)
        .field("parent", static_cast<double>(s.parent))
        .field("request", static_cast<double>(s.request))
        .field("source", s.reported ? "program" : "bench")
        .end_object();
    out << json.str();
  }
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<request_spec> replay_lines(const workload& load) {
  std::size_t per_client = 40;
  if (load.kind() == workload_kind::fig78_cold) per_client = 3;
  if (load.kind() == workload_kind::warm_http) per_client = 100;
  std::vector<request_spec> lines;
  for (std::size_t index = 0; index < per_client; ++index) {
    for (std::size_t client = 0; client < load.shape().clients; ++client) {
      lines.push_back(load.request(client, index));
    }
  }
  return lines;
}

std::vector<metric> run_replay(const workload& load,
                               const std::string& seeded_store,
                               const std::string& scratch_dir,
                               const daemon_observations& seen,
                               const std::string& spans_path,
                               std::ostream& report) {
  const std::vector<request_spec> lines = replay_lines(load);
  const auto pass = [&](tracer& t) {
    return replay_pass(load, lines, seen.probe_lines, seeded_store,
                       scratch_dir, t);
  };
  // Untraced, traced, untraced: the overhead compares the traced wall with
  // the mean of the two untraced walls around it.
  tracer untraced(false);
  double wall_off = pass(untraced).wall;
  tracer traced(true);
  const pass_record r = pass(traced);
  wall_off = 0.5 * (wall_off + pass(untraced).wall);
  write_spans(traced, spans_path);
  const auto dur = [&](long id) { return traced.seconds(id); };
  const auto total = [&](const std::vector<long>& ids) {
    double sum = 0.0;
    for (const long id : ids) sum += dur(id);
    return sum;
  };

  // Self time per layer along the blocking chain, summed over the replay
  // set. A layer's children are timed inside the same call wherever the
  // program reports them (job trace, eval_trace, engine report); an
  // inline answer's child is the service replica's probe, and the
  // yield/kernel division of the Monte-Carlo legs is the ratio of their
  // fastest separate runs.
  double api_self = 0.0, service_self = 0.0, core_self = 0.0, mc = 0.0;
  std::vector<double> parse_us, inline_us, job_us, probe_us;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const double inner =
        r.inline_answer[k]
            ? dur(r.call[k])
            : traced.children(r.request[k], "api.job_evaluation");
    const double dispatch = dur(r.request[k]) - inner;
    api_self += dispatch;
    (r.inline_answer[k] ? inline_us : job_us).push_back(dispatch * 1e6);
    parse_us.push_back(dur(r.parse[k]) * 1e6);
    probe_us.push_back(dur(r.probe[k]) * 1e6);
    service_self += dur(r.call[k]) - r.engine[k];
  }
  std::vector<double> core_self_ms;
  for (const long run : r.core_runs) {
    const double legs = traced.children(run, "core.mc_leg");
    core_self_ms.push_back((dur(run) - legs) * 1e3);
    if (traced.spans()[static_cast<std::size_t>(run)].parent >= 0) {
      core_self += dur(run) - legs;
      mc += legs;
    }
  }
  double fastest_yield = 0.0, fastest_kernel = 0.0;
  for (std::size_t k = 0; k < r.leg_yield.size(); ++k) {
    fastest_yield += r.leg_yield[k];
    fastest_kernel += r.leg_kernel[k];
  }
  const double kernel_share =
      fastest_yield > 0.0 ? std::min(1.0, fastest_kernel / fastest_yield)
                          : 0.0;

  std::vector<double> tcp_self, http_self;
  for (std::size_t p = 0; p < r.inprocess.size(); ++p) {
    std::vector<double> submit_us, full_us;
    for (const auto& [submit, wait] : r.inprocess[p]) {
      submit_us.push_back(dur(submit) * 1e6);
      full_us.push_back((dur(submit) + dur(wait)) * 1e6);
    }
    tcp_self.push_back(seen.tcp_rtt_us[p] - median(full_us));
    http_self.push_back(seen.http_rtt_us[p] - median(submit_us));
  }
  const double tcp_self_us = median(tcp_self);
  const double http_self_us = median(http_self);
  const double transport_self =
      static_cast<double>(lines.size()) * 1e-6 *
      (load.shape().http ? http_self_us : tcp_self_us);

  const std::vector<std::pair<const char*, double>> split = {
      {"transport", transport_self},
      {"api", api_self},
      {"service", service_self},
      {"core", core_self},
      {"yield", mc * (1.0 - kernel_share)},
      {"kernel", mc * kernel_share},
  };
  double split_total = 0.0;
  for (const auto& [layer, seconds] : split) split_total += seconds;
  const auto share = [&](double seconds) {
    return split_total > 0.0 ? 100.0 * seconds / split_total : 0.0;
  };

  double lookup = 0.0, insert = 0.0, wal = 0.0, rotation = 0.0;
  std::size_t rotations = 0;
  for (const service::eval_trace& trace : r.evaluations) {
    lookup += trace.store_lookup_seconds;
    wal += trace.wal_append_seconds;
    rotation += trace.wal_rotation_seconds;
    insert += trace.store_insert_seconds - trace.wal_append_seconds -
              trace.wal_rotation_seconds;
    if (trace.wal_rotation_seconds > 0.0) ++rotations;
  }
  const double evaluations =
      std::max<double>(1.0, static_cast<double>(r.evaluations.size()));
  double kernel_cells = 0.0;
  for (const double cells : r.kernel_cells) kernel_cells += cells;
  const double kernel_seconds = total(r.kernel_probe);
  const double rate_1t = kYieldProbeTrials / dur(r.yield_1t);
  const double rate_mt = kYieldProbeTrials / dur(r.yield_mt);
  std::vector<double> small_us;
  for (const long id : r.small_calls) small_us.push_back(dur(id) * 1e6);
  const auto ratio = [](std::size_t hits, std::size_t builds) {
    const std::size_t all = hits + builds;
    return all == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(all);
  };

  std::vector<metric> metrics = {
      {"kernel.trials_per_s",
       static_cast<double>(r.kernel_probe.size() * kKernelProbeTrials) /
           kernel_seconds,
       "1/s"},
      {"kernel.ns_per_cell", kernel_seconds * 1e9 / kernel_cells, "ns"},
      {"kernel.bytes_per_trial", mean(r.kernel_bytes), "B"},
      {"yield.trials_per_s_1t", rate_1t, "1/s"},
      {"yield.trials_per_s_mt", rate_mt, "1/s"},
      {"yield.parallel_eff",
       rate_mt / (rate_1t * static_cast<double>(r.yield_threads)), "ratio"},
      {"yield.small_call_us", median(small_us), "us"},
      {"core.points_per_s",
       static_cast<double>(r.core_points) / total(r.core_runs), "1/s"},
      {"core.self_ms", mean(core_self_ms), "ms"},
      {"core.design_hit_ratio",
       ratio(r.engine_cache.design_reuses, r.engine_cache.designs_built),
       "ratio"},
      {"core.plan_hit_ratio",
       ratio(r.engine_cache.plan_reuses, r.engine_cache.plans_built), "ratio"},
      {"core.design_build_ms", mean(r.design_build) * 1e3, "ms"},
      {"service.lookup_us", lookup * 1e6 / evaluations, "us"},
      {"service.insert_us", insert * 1e6 / evaluations, "us"},
      {"service.wal_append_us", wal * 1e6 / evaluations, "us"},
      {"service.wal_rotation_ms",
       rotations == 0 ? 0.0 : rotation * 1e3 / static_cast<double>(rotations),
       "ms"},
      {"service.rotations", static_cast<double>(rotations), "count"},
      {"service.store_hit_ratio", r.store_hit_ratio, "ratio"},
      {"service.probe_us", mean(probe_us), "us"},
      {"service.recover_s", dur(r.recover), "s"},
      {"service.records_replayed",
       static_cast<double>(r.recovered.log_records), "count"},
      {"api.parse_us", mean(parse_us), "us"},
      {"api.dispatch_inline_us", mean(inline_us), "us"},
      {"api.dispatch_job_us", mean(job_us), "us"},
      {"api.queue_wait_ms", seen.queue_wait_ms, "ms"},
      {"api.coalesce_ratio", seen.coalesce_ratio, "ratio"},
      {"api.inline_ratio", seen.inline_ratio, "ratio"},
      {"api.http_self_us", http_self_us, "us"},
      {"api.tcp_self_us", tcp_self_us, "us"},
      {"api.shed", seen.shed, "count"},
      {"api.timed_out", seen.timed_out, "count"},
  };
  for (const auto& [layer, seconds] : split) {
    metrics.push_back({std::string("self.") + layer + "_us",
                       seconds * 1e6 / static_cast<double>(lines.size()),
                       "us"});
  }
  metrics.push_back(
      {"replay.overhead_pct", 100.0 * (r.wall - wall_off) / wall_off, "%"});

  report << "self time by layer, " << load.shape().name << ", "
         << lines.size() << " requests replayed single-threaded:\n";
  for (const auto& [layer, seconds] : split) {
    char row[96];
    std::snprintf(row, sizeof row, "  %-10s %12.3f ms %7.2f %%\n", layer,
                  seconds * 1e3, share(seconds));
    report << row;
  }
  report << "tracing overhead: replay wall " << r.wall << " s traced, "
         << wall_off << " s untraced (mean of two); "
         << traced.spans().size() << " spans written to " << spans_path
         << "\n";
  return metrics;
}

}  // namespace perfbench
