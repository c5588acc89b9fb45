// nwdec_perfbench: the load generator and metric reporter behind
// perfbench/run.py.
//
//   nwdec_perfbench --daemon PATH --workdir DIR --workload NAME --seed N
//                   --seconds S --trace 0|1 [--corrupt-payload]
//
// It seeds the workload's store, launches nwdec_service several times
// to time set-up, drives the last instance with closed-loop clients (each
// waits for its reply before sending the next request) for a warm-up and
// then the timed window, checks every answer against the in-process
// reference, and prints one JSON object as its last line of output: the
// end-to-end metrics with --trace 0, the per-layer metrics of the traced
// replay (replay.h) with --trace 1. It exits 1 when any answer fails.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check.h"
#include "daemon.h"
#include "replay.h"
#include "util/json.h"
#include "util/log.h"
#include "workload.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

// Set-up is timed over at least kMinLaunches daemon launches, and over
// more (up to kMaxLaunches) until kSetupSeconds have been spent on them.
constexpr int kMinLaunches = 7;
constexpr int kMaxLaunches = 31;
constexpr double kSetupSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kProbeLines = 20;
constexpr std::size_t kSlices = 5;

struct options {
  std::string daemon;
  std::string workdir = ".bench_run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_payload = false;  ///< flip one payload digit before checking
};

options parse_options(int argc, char** argv) {
  options parsed;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--corrupt-payload") {
      parsed.corrupt_payload = true;
      continue;
    }
    if (k + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++k];
    if (flag == "--daemon") parsed.daemon = value;
    else if (flag == "--workdir") parsed.workdir = value;
    else if (flag == "--workload") parsed.workload = value;
    else if (flag == "--seed") parsed.seed = std::stoull(value);
    else if (flag == "--seconds") parsed.seconds = std::stod(value);
    else if (flag == "--trace") parsed.trace = value == "1";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return parsed;
}

// One distinct request content a client sent, and its answer.
struct answer {
  request_spec spec;
  std::string payload;
  std::string failure;
};

struct sample {
  double sent = 0.0;
  double done = 0.0;
  long answer = -1;  ///< index into client_log::answers; -1 = failed
};

struct client_log {
  std::vector<sample> samples;
  std::vector<answer> answers;
  std::unordered_map<std::string, std::size_t> by_key;
  std::vector<std::string> errors;
};

// After an async submission's answer `ack`: subscribes to the job and
// reads its event stream up to the terminal event; returns the bytes of
// the "result" payload the done event carries.
std::string follow_job(line_client& tcp, const std::string& ack) {
  const auto job = static_cast<std::uint64_t>(
      nwdec::json_parse(ack).at("job").as_number());
  tcp.send_line("{\"kind\":\"subscribe\",\"job\":" + std::to_string(job) +
                "}");
  for (;;) {
    const std::string event = tcp.read_line();
    if (event.find("\"event\":\"done\"") != std::string::npos) {
      return result_bytes(event);
    }
    for (const char* terminal :
         {"\"event\":\"failed\"", "\"event\":\"cancelled\"",
          "\"event\":\"timed_out\"", "\"ok\":false", "\"code\":"}) {
      if (event.find(terminal) != std::string::npos) {
        throw std::runtime_error("job " + std::to_string(job) + ": " + event);
      }
    }
  }
}

// One closed-loop client: its own connection, its own request sequence.
class client {
 public:
  client(const workload& load, std::size_t id, const daemon_process& daemon)
      : load_(load), id_(id), daemon_(daemon) {
    connect();
  }

  void run(const std::atomic<bool>& stop, client_log& log) {
    for (std::size_t index = 0; !stop.load(); ++index) {
      const request_spec spec = load_.request(id_, index);
      sample s;
      s.sent = now_seconds();
      try {
        const std::string payload = exchange(spec.line);
        s.done = now_seconds();
        s.answer = record(spec, payload, log);
      } catch (const std::exception& failure) {
        s.done = now_seconds();
        log.errors.push_back(failure.what());
        try {
          connect();
        } catch (const std::exception& lost) {
          log.errors.push_back(lost.what());
          log.samples.push_back(s);
          return;
        }
      }
      log.samples.push_back(s);
    }
  }

 private:
  void connect() {
    tcp_.reset();
    http_.reset();
    if (load_.shape().http) {
      http_ = std::make_unique<http_client>(daemon_.http_port());
    } else {
      tcp_ = std::make_unique<line_client>(daemon_.tcp_port());
    }
  }

  // Sends one request and returns the bytes of its "result" payload.
  std::string exchange(const std::string& line) {
    std::string response;
    if (http_) {
      int status = 0;
      response = http_->post_rpc(line, status);
      if (status != 200) throw std::runtime_error("HTTP " + std::to_string(status));
    } else {
      tcp_->send_line(line);
      response = tcp_->read_line();
    }
    if (response.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("refused: " + response);
    }
    if (!load_.shape().subscribe) return result_bytes(response);
    return follow_job(*tcp_, response);
  }

  // Keeps one payload per distinct request content; a repeat must match
  // the first answer byte for byte (the reference check runs afterwards).
  long record(const request_spec& spec, const std::string& payload,
              client_log& log) {
    const std::string key = request_key(spec.line);
    const auto [found, inserted] = log.by_key.emplace(key, log.answers.size());
    if (inserted) {
      log.answers.push_back({spec, payload, ""});
    } else if (log.answers[found->second].payload != payload) {
      log.errors.push_back("repeat answered different bytes: " + spec.line);
      return -1;
    }
    return static_cast<long>(found->second);
  }

  const workload& load_;
  std::size_t id_;
  const daemon_process& daemon_;
  std::unique_ptr<line_client> tcp_;
  std::unique_ptr<http_client> http_;
};

// Nearest-rank quantile of sorted values, or NaN when fewer than ten
// samples lie beyond it.
double supported_quantile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (n == 0 || rank < 1 || n - rank < 10) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sorted[rank - 1];
}

// Shortest round-trip decimal form; null for a non-finite value (a
// latency percentile that reached a failed request).
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

struct reported {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " +
           number(metrics[k].value) + ", \"unit\": \"" + metrics[k].unit +
           "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

// The daemon's stats {"detail": true} and its jobs' queue waits, plus the
// round trips of the probe lines over both transports.
daemon_observations observe_daemon(const daemon_process& daemon,
                                   const workload& load) {
  daemon_observations seen;
  line_client tcp(daemon.tcp_port());
  http_client http(daemon.http_port());
  tcp.send_line("{\"kind\":\"stats\",\"detail\":true}");
  const nwdec::json_value stats = nwdec::json_parse(tcp.read_line());
  const nwdec::json_value& jobs = stats.at("result").at("jobs");
  const auto count = [&](const char* name) { return jobs.at(name).as_number(); };
  seen.coalesce_ratio = count("sweep_batches") > 0
                            ? count("sweep_jobs_batched") / count("sweep_batches")
                            : 0.0;
  const double admitted = count("submitted") + count("answered_inline");
  seen.inline_ratio = admitted > 0 ? count("answered_inline") / admitted : 0.0;
  seen.shed = count("shed");
  seen.timed_out = count("timed_out");

  std::vector<double> waits;
  const auto submitted = static_cast<std::uint64_t>(count("submitted"));
  const std::uint64_t first = submitted > 500 ? submitted - 499 : 1;
  for (std::uint64_t job = first; job <= submitted; ++job) {
    tcp.send_line("{\"kind\":\"status\",\"job\":" + std::to_string(job) + "}");
    const nwdec::json_value status = nwdec::json_parse(tcp.read_line());
    if (const nwdec::json_value* trace = status.find("trace")) {
      waits.push_back(trace->at("queue_wait_ms").as_number());
    }
  }
  seen.queue_wait_ms = median(waits);

  const std::vector<request_spec> lines = replay_lines(load);
  for (std::size_t p = 0; p < std::min(kProbeLines, lines.size()); ++p) {
    const std::string& line = lines[p].line;
    seen.probe_lines.push_back(lines[p]);
    std::vector<double> tcp_us, http_us;
    for (int k = 0; k < kProbeRepeats; ++k) {
      double start = now_seconds();
      tcp.send_line(line);
      const std::string ack = tcp.read_line();
      if (load.shape().subscribe) follow_job(tcp, ack);
      tcp_us.push_back((now_seconds() - start) * 1e6);
      int status = 0;
      start = now_seconds();
      http.post_rpc(line, status);
      http_us.push_back((now_seconds() - start) * 1e6);
    }
    seen.tcp_rtt_us.push_back(median(tcp_us));
    seen.http_rtt_us.push_back(median(http_us));
  }
  return seen;
}

int run(const options& opt) {
  const workload load(parse_workload(opt.workload), opt.seed);
  const workload_shape& shape = load.shape();
  const fs::path dir = fs::absolute(fs::path(opt.workdir) /
                                    (std::string(shape.name) + "-" +
                                     std::to_string(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir / "seed");
  const std::string seeded =
      shape.durable ? (dir / "seed" / "store.json").string() : "";
  if (shape.durable) seed_store(load, seeded);

  // Set-up: several launches, each from a fresh copy of the seeded store
  // (the daemon rewrites its store at shutdown); the last one serves.
  const fs::path live = dir / "live";
  std::vector<double> setups;
  auto daemon = std::make_unique<daemon_process>();
  const double setup_began = now_seconds();
  for (int launch = 0;
       launch < kMinLaunches ||
       (launch < kMaxLaunches && now_seconds() - setup_began < kSetupSeconds);
       ++launch) {
    daemon = std::make_unique<daemon_process>();
    fs::remove_all(live);
    fs::create_directories(live);
    std::vector<std::string> args = {"--slow-ms", "0", "--drain-ms", "2000"};
    if (shape.durable) {
      const fs::path store = live / "store.json";
      fs::copy_file(seeded, store);
      if (fs::exists(seeded + ".log")) {
        fs::copy_file(seeded + ".log", store.string() + ".log");
      }
      args.push_back("--cache");
      args.push_back(store.string());
    }
    setups.push_back(
        daemon->start(opt.daemon, args, (dir / "daemon.log").string()));
  }

  // Closed loop: warm-up, then the timed window [t0, t1).
  std::vector<client_log> logs(shape.clients);
  std::vector<std::unique_ptr<client>> clients;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    clients.push_back(std::make_unique<client>(load, c, *daemon));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] { clients[c]->run(stop, logs[c]); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const double t0 = now_seconds();
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  const double t1 = now_seconds();
  stop = true;
  for (std::thread& thread : threads) thread.join();
  clients.clear();

  daemon_observations seen;
  if (opt.trace) seen = observe_daemon(*daemon, load);
  const double peak_rss = daemon->peak_rss_mb();
  daemon->terminate();

  // Every answer, warm-up included, against the in-process reference.
  nwdec::logging::set_min_level(nwdec::logging::level::warn);
  if (opt.corrupt_payload && !logs[0].answers.empty()) {
    std::string& payload = logs[0].answers[0].payload;
    const std::size_t digit = payload.find_first_of("123456789");
    if (digit != std::string::npos) payload[digit] = payload[digit] == '1' ? '2' : '1';
  }
  reference expected;
  std::size_t attempted = 0, answered = 0, points = 0, mc_trials = 0;
  double window_end = t0;
  std::vector<double> latencies;
  // Throughput is the median over kSlices equal slices of the window, by
  // completion time, so a transient stall of the host moves it less.
  const double slice_seconds = opt.seconds / kSlices;
  std::vector<double> slice_requests(kSlices, 0.0), slice_points(kSlices, 0.0),
      slice_trials(kSlices, 0.0);
  // Each distinct request is checked once; another client's answer to the
  // same request must carry the same bytes.
  std::unordered_map<std::string, const answer*> checked;
  for (client_log& log : logs) {
    for (answer& a : log.answers) {
      const auto [first, inserted] =
          checked.emplace(request_key(a.spec.line), &a);
      if (inserted) {
        a.failure = check_answer(a.spec, a.payload, expected);
      } else if (first->second->payload != a.payload) {
        a.failure = "clients were answered different bytes";
      } else {
        a.failure = first->second->failure;
      }
      if (!a.failure.empty()) log.errors.push_back(a.failure + ": " + a.spec.line);
    }
  }
  for (client_log& log : logs) {
    for (const sample& s : log.samples) {
      if (s.sent < t0 || s.sent >= t1) continue;
      ++attempted;
      window_end = std::max(window_end, s.done);
      const bool ok = s.answer >= 0 && log.answers[s.answer].failure.empty();
      if (!ok) {
        latencies.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      const request_spec& spec = log.answers[s.answer].spec;
      ++answered;
      points += spec.points;
      mc_trials += spec.fresh_points * spec.trials;
      latencies.push_back((s.done - s.sent) * 1e3);
      const auto slice = static_cast<std::size_t>((s.done - t0) / slice_seconds);
      if (slice < kSlices) {
        slice_requests[slice] += 1.0 / slice_seconds;
        slice_points[slice] += spec.points / slice_seconds;
        slice_trials[slice] +=
            static_cast<double>(spec.fresh_points * spec.trials) / slice_seconds;
      }
    }
  }
  std::size_t errors = 0;
  for (const client_log& log : logs) {
    for (const std::string& error : log.errors) {
      if (++errors <= 5) std::cerr << "perfbench: " << error << "\n";
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double wall = window_end - t0;
  const bool correct = errors == 0 && attempted > 0 && answered == attempted;

  std::cout << "workload " << shape.name << ", seed " << opt.seed << ": "
            << shape.clients << " closed-loop "
            << (shape.http ? "HTTP/1.1 keep-alive" : "TCP NDJSON")
            << (shape.subscribe ? " async+subscribe" : "") << " clients, "
            << kWarmupSeconds << " s warm-up, " << wall
            << " s timed window; " << checked.size()
            << " distinct requests checked against the reference\n";

  if (opt.trace) {
    std::ostringstream report;
    const std::vector<metric> layers =
        run_replay(load, seeded, (dir / "replay").string(), seen,
                   (fs::path(opt.workdir) / (std::string("spans-") +
                                             shape.name + "-seed" +
                                             std::to_string(opt.seed) +
                                             ".jsonl"))
                       .string(),
                   report);
    std::cout << report.str();
    for (const metric& m : layers) {
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
                << "\n";
    }
    fs::remove_all(dir);
    print_result(correct, std::max<std::size_t>(1, attempted),
                 attempted - answered, layers);
    return correct ? 0 : 1;
  }

  const std::size_t n = latencies.size();
  std::vector<reported> rows = {
      {"setup_s", median(setups), "s", setups.size()},
      {"peak_rss_mb", peak_rss, "MiB", 1},
      {"ok_ratio",
       attempted == 0 ? 0.0
                      : static_cast<double>(answered) /
                            static_cast<double>(attempted),
       "ratio", attempted},
      {"req_p50_ms", supported_quantile(latencies, 0.50), "ms", n},
      {"req_p90_ms", supported_quantile(latencies, 0.90), "ms", n},
      {"req_per_s", median(slice_requests), "1/s", answered},
      {"points_per_s", median(slice_points), "1/s", points},
  };
  // Reported beside the contract metrics, not in the JSON line: p99 is
  // supported only past 1000 samples, and the MC rate is zero by design
  // on warm_http.
  std::vector<reported> extra = {
      {"req_p99_ms", supported_quantile(latencies, 0.99), "ms", n},
      {"mc_trials_per_s", median(slice_trials), "1/s", mc_trials},
  };
  std::vector<metric> metrics;
  bool complete = true;
  for (const std::vector<reported>* table : {&rows, &extra}) {
    for (const reported& row : *table) {
      std::cout << "  " << row.name << " = "
                << (std::isnan(row.value) ? "n/a (too few samples)"
                                          : number(row.value))
                << " " << row.unit << "  (samples " << row.samples << ")\n";
    }
  }
  for (const reported& row : rows) {
    if (std::isnan(row.value)) complete = false;
    metrics.push_back({row.name, row.value, row.unit});
  }
  fs::remove_all(dir);
  if (!complete) {
    std::cerr << "perfbench: too few samples for every percentile\n";
    return 1;
  }
  print_result(correct, std::max<std::size_t>(1, attempted),
               attempted - answered, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& failure) {
    std::cerr << "nwdec_perfbench: " << failure.what() << "\n";
    return 2;
  }
}
