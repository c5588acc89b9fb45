// nwdec_service: the long-running sweep daemon over service::sweep_service
// and the api:: job scheduler.
//
// Speaks newline-delimited JSON -- one request per line, one response per
// line -- over one of two transports sharing one dispatcher (responses are
// byte-identical either way):
//
//   * stdin/stdout (default): diagnostics go to stderr (structured NDJSON
//     records -- util/log.h; route them to a file with --log-file, tune
//     with --log-level), stdout carries protocol responses only, so the
//     daemon composes with pipes:
//
//       $ nwdec_service --cache results.json < requests.ndjson > out.ndjson
//       $ echo '{"id":1,"kind":"sweep","codes":["BGC"],"lengths":[10],
//                "trials":150}' | nwdec_service
//
//   * TCP (--listen <port>, 0 = ephemeral; the bound port is in the
//     "listening" log record): any number of concurrent connections, one
//     response stream per connection; SIGINT/SIGTERM shut down cleanly
//     (and persist the cache):
//
//       $ nwdec_service --listen 4750 --cache results.json &
//       $ nc 127.0.0.1 4750 < requests.ndjson
//
//   * HTTP/1.1 (--http-port <port>, 0 = ephemeral; the bound port is in
//     the "http_listening" log record; serves beside either transport
//     above): POST /v1/rpc carries the same NDJSON lines (responses
//     byte-identical to the other transports), GET /v1/jobs/{id}/events
//     streams job lifecycle events as SSE, GET /metrics serves the
//     Prometheus text exposition. Shares the same self-protection
//     bounds (--idle-timeout/--read-deadline/--max-request-bytes/
//     --max-connections) and the same graceful drain:
//
//       $ nwdec_service --http-port 8080 --listen 4750 &
//       $ curl -s http://127.0.0.1:8080/v1/rpc --data-binary @requests.ndjson
//
// Observability: GET /metrics on --http-port serves the util/metrics
// registry in Prometheus text format (works with curl, Prometheus
// scrapes, and `printf 'GET /metrics HTTP/1.0\r\n\r\n' | nc`); the same
// snapshot is available in-band via the "metrics" request kind. Jobs
// slower than --slow-ms are logged as slow_request warn records with
// their span breakdown. All telemetry is out-of-band: response payloads
// are byte-identical with or without it.
//
// Requests become jobs on --workers threads; concurrent sweep jobs
// coalesce their store misses into one engine run. The grammar -- async
// submission, status/cancel, per-sweep "min_half_width" CI targets with
// cross-restart top-up -- is documented in src/api/types.h and
// bench/README.md. Identical points are answered from the fingerprint-
// keyed result store (service/result_store.h) instead of recomputed --
// across requests, and, with --cache, across daemon restarts (crash-safe:
// snapshot + write-ahead log, service/durable_store.h).
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "api/dispatch.h"
#include "api/http_transport.h"
#include "api/tcp_transport.h"
#include "api/transport.h"
#include "service/durable_store.h"
#include "service/sweep_service.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace {

using namespace nwdec;

std::size_t get_size(const cli_parser& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  if (value < 0) {
    throw invalid_argument_error("--" + name + " cannot be negative (got " +
                                 std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

// A millisecond bound handed to poll(2) as an int: capped at 24 hours so
// no value narrows into 0 ("never") or a negative window.
int get_ms(const cli_parser& cli, const std::string& name) {
  const std::size_t value = get_size(cli, name);
  if (value > 86'400'000) {
    throw invalid_argument_error("--" + name +
                                 " must be at most 86400000 ms (24 hours)");
  }
  return static_cast<int>(value);
}

// The shutdown hook: signal handlers may only touch async-signal-safe
// calls, so they write one byte to each listener's wake pipe. Up to
// two listeners run at once (NDJSON socket, HTTP gateway); unused slots
// stay -1.
volatile std::sig_atomic_t g_shutdown_fds[2] = {-1, -1};

extern "C" void on_signal(int) {
  for (const std::sig_atomic_t fd : g_shutdown_fds) {
    if (fd >= 0) {
      const char wake = 'x';
      [[maybe_unused]] const ssize_t n = ::write(fd, &wake, 1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("nwdec_service",
                 "long-running sweep daemon: newline-delimited JSON "
                 "requests over stdin/stdout or --listen TCP (kinds: sweep "
                 "| refine | status | cancel | stats | flush | metrics; "
                 "async jobs, cross-request batching)");
  cli.add_string("cache", "",
                 "durable result-store snapshot (write-ahead log beside it "
                 "at <path>.log): recovered at startup, appended per "
                 "evaluation, compacted on 'flush' requests and at "
                 "shutdown; a plain JSON store export imports in place "
                 "('' = in-memory only)");
  cli.add_int("capacity", 1 << 16, "result-store capacity (LRU entries)");
  cli.add_int("listen", -1,
              "serve a TCP port instead of stdin/stdout (0 = ephemeral; "
              "the bound port is in the 'listening' log record)");
  cli.add_int("http-port", -1,
              "serve an HTTP/1.1 gateway beside the main transport "
              "(POST /v1/rpc = the NDJSON protocol, GET "
              "/v1/jobs/{id}/events = SSE job events, GET /metrics; "
              "0 = ephemeral; the bound port is in the 'http_listening' "
              "log record)");
  cli.add_int("workers", 0,
              "job-scheduler worker threads draining the request queue "
              "(0 = hardware; results never depend on the count)");
  cli.add_int("retain", 4096,
              "finished async jobs retained for status/result fetches "
              "(oldest are forgotten first; size burst submissions below "
              "this or fetch as you go)");
  cli.add_int("max-queued", 4096,
              "job-queue bound: submissions past this many waiting jobs "
              "get an 'overloaded' error response (0 = unbounded)");
  cli.add_int("idle-timeout", 300000,
              "TCP connections silent for this many milliseconds are "
              "closed with an 'idle_timeout' error line (0 = never)");
  cli.add_int("read-deadline", 30000,
              "TCP connections whose partial request line is this many "
              "milliseconds old are closed with a 'read_timeout' error "
              "line -- slowloris peers dribbling bytes cannot pin a "
              "connection thread (0 = never)");
  cli.add_int("max-request-bytes", 4 << 20,
              "request lines past this many bytes get a "
              "'payload_too_large' error line and the connection closes");
  cli.add_int("max-connections", 0,
              "TCP accepts past this many live connections are answered "
              "'too_many_connections' and closed (0 = unbounded)");
  cli.add_int("drain-ms", 5000,
              "graceful-drain window on SIGINT/SIGTERM: stop accepting, "
              "give in-flight requests this long to finish, cancel the "
              "stragglers, persist, exit (0 = close immediately)");
  cli.add_int("dedup-window", 4096,
              "request_id idempotency keys remembered for duplicate-submit "
              "detection: a retried submit whose key is in the window "
              "returns the existing job instead of re-running (0 = off)");
  cli.add_int("threads", 0, "engine worker threads (0 = hardware)");
  cli.add_int("seed", 2009,
              "base seed (a point's result is a pure function of the seed, "
              "the mode, the budget policy, and the point itself)");
  cli.add_string("mode", "operational", "MC criterion: window | operational");
  cli.add_int("raw-kb", 16, "raw crossbar capacity [kB]");
  cli.add_flag("adaptive",
               "CI-width stopping: run MC in growing batches and stop each "
               "point once the Wilson half-width reaches the target");
  cli.add_double("target-half-width", 0.02,
                 "adaptive stopping target (Wilson CI half-width)");
  cli.add_int("initial-batch", 64, "adaptive first-batch trials");
  cli.add_double("growth", 2.0, "adaptive total-trials growth per round");
  cli.add_string("log-level", "info",
                 "minimum level of the structured NDJSON diagnostics "
                 "(debug | info | warn | error | off)");
  cli.add_string("log-file", "",
                 "append NDJSON log records to this file instead of stderr");
  cli.add_int("slow-ms", 1000,
              "log jobs slower than this many milliseconds as "
              "'slow_request' warn records (0 = never)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Logging first: everything after this line reports through the
    // structured logger (stderr by default).
    logging::set_min_level(logging::parse_level(cli.get_string("log-level")));
    const std::string log_file = cli.get_string("log-file");
    if (!log_file.empty()) logging::set_file(log_file);

    // Fault injection for the crash-safety tests and CI smoke: inert (and
    // free) unless NWDEC_FAILPOINT is set in the environment.
    failpoints::arm_from_env();

    // The kernel dispatch path this process runs (NWDEC_SIMD_PATH
    // honored) and every path it could run; CI's forced-path matrix takes
    // its path list from this record. The path is resolved before the
    // record opens, so a bad NWDEC_SIMD_PATH ends in the fatal record
    // alone.
    const char* active = cpu::simd_path_name(cpu::active_path());
    std::string available;
    for (const cpu::simd_path path : cpu::available_paths()) {
      if (!available.empty()) available += ",";
      available += cpu::simd_path_name(path);
    }
    logging::event(logging::level::info, "daemon", "simd_dispatch")
        .field("path", active)
        .field("available", available);

    service::service_options options;
    options.threads = get_size(cli, "threads");
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.mode = service::parse_mc_mode(cli.get_string("mode"));
    options.cache_capacity = get_size(cli, "capacity");
    if (cli.get_flag("adaptive")) {
      service::adaptive_options adaptive;
      adaptive.target_half_width = cli.get_double("target-half-width");
      adaptive.initial_batch = get_size(cli, "initial-batch");
      adaptive.growth = cli.get_double("growth");
      adaptive.validate();
      options.adaptive = adaptive;
    }

    crossbar::crossbar_spec spec;
    spec.raw_bits = get_size(cli, "raw-kb") * 1024 * 8;
    service::sweep_service service(spec, device::paper_technology(), options);

    const std::string cache_path = cli.get_string("cache");
    if (!cache_path.empty()) {
      // Crash-safe persistence: snapshot + write-ahead log. Recovery never
      // aborts the daemon -- corrupt files are quarantined (reported below)
      // and the daemon starts cold; a persistence layer that cannot even
      // open (unwritable directory) leaves the daemon serving from memory,
      // persisting nothing.
      try {
        const service::recovery_report recovered =
            service.enable_durability(cache_path);
        service::log_recovery(recovered);
        if (service.stats().entries > 0) {
          logging::event(logging::level::info, "daemon", "warmed")
              .field("entries", service.stats().entries)
              .field("cache", cache_path)
              .field("log_records", recovered.log_records);
        }
      } catch (const std::exception& failure) {
        logging::event(logging::level::warn, "daemon", "durability_disabled")
            .field("error", failure.what())
            .field("cache", cache_path);
      }
    }

    const std::int64_t listen = cli.get_int("listen");
    int exit_code = 0;
    {
      api::dispatcher::options dispatch_options;
      dispatch_options.workers = get_size(cli, "workers");
      dispatch_options.retain_finished =
          std::max<std::size_t>(1, get_size(cli, "retain"));
      dispatch_options.max_queued = get_size(cli, "max-queued");
      dispatch_options.slow_request_ms = get_size(cli, "slow-ms");
      dispatch_options.dedup_window = get_size(cli, "dedup-window");
      api::dispatcher dispatcher(service, dispatch_options);

      // One set of per-connection bounds protects every listener: the
      // NDJSON socket and the HTTP gateway share the tcp_limits verbatim.
      api::tcp_limits limits;
      limits.idle_timeout_ms = get_ms(cli, "idle-timeout");
      limits.read_deadline_ms = get_ms(cli, "read-deadline");
      limits.max_request_bytes = get_size(cli, "max-request-bytes");
      limits.max_connections = get_size(cli, "max-connections");
      limits.drain_ms = get_ms(cli, "drain-ms");

      // The HTTP/1.1 gateway (RPC, SSE job events, the /metrics scrape),
      // served from its own thread beside (not instead of) the main
      // transport, under the same bounds.
      const std::int64_t http_port = cli.get_int("http-port");
      std::unique_ptr<api::http_transport> http_gateway;
      std::thread http_thread;
      if (http_port >= 0) {
        if (http_port > 65535) {
          throw invalid_argument_error("--http-port must be <= 65535");
        }
        http_gateway = std::make_unique<api::http_transport>(
            static_cast<std::uint16_t>(http_port), 64, limits);
        logging::event(logging::level::info, "daemon", "http_listening")
            .field("port", http_gateway->port());
        g_shutdown_fds[1] = http_gateway->shutdown_fd();
        http_thread = std::thread([&http_gateway, &dispatcher] {
          http_gateway->serve(dispatcher);
        });
      }

      if (listen >= 0) {
        if (listen > 65535) {
          throw invalid_argument_error("--listen port must be <= 65535");
        }
        api::tcp_transport transport(static_cast<std::uint16_t>(listen), 64,
                                     limits);
        logging::event(logging::level::info, "daemon", "listening")
            .field("port", transport.port());
        g_shutdown_fds[0] = transport.shutdown_fd();
        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);
        exit_code = transport.serve(dispatcher);
        g_shutdown_fds[0] = -1;
      } else {
        if (http_port >= 0) {
          // HTTP-only daemons still need clean SIGTERM semantics even
          // though the stdio loop itself only ends at EOF.
          std::signal(SIGINT, on_signal);
          std::signal(SIGTERM, on_signal);
        }
        api::stdio_transport transport(std::cin, std::cout);
        exit_code = transport.serve(dispatcher);
      }
      if (http_gateway) {
        http_gateway->shutdown();
        http_thread.join();
        g_shutdown_fds[1] = -1;
      }
      // The dispatcher (and its scheduler workers) drain here, before the
      // final persistence snapshot below.
    }

    // Shutdown persistence compacts the durable store, and skips an empty
    // one: after a `flush {"clear": true}` checkpoint the store is
    // deliberately empty, and compacting it here would wipe the snapshot
    // the flush just wrote.
    const std::string snapshot = service.snapshot_path();
    if (!snapshot.empty() && service.stats().entries > 0) {
      service.flush(snapshot, false);
      logging::event(logging::level::info, "daemon", "persisted")
          .field("entries", service.stats().entries)
          .field("cache", snapshot);
    }
    return exit_code;
  } catch (const std::exception& failure) {
    logging::event(logging::level::error, "daemon", "fatal")
        .field("error", failure.what());
    return 1;
  }
}
