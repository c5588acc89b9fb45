// nwdec_chaos: the api::chaos_transport fault-injection proxy as a
// standalone tool, for soaking a daemon by hand or from CI shell legs.
//
// Listens on --listen, forwards every connection to --upstream-port, and
// misbehaves per the flags -- deterministically, from --seed. Runs until
// SIGINT/SIGTERM, then reports what it did as a "stopped" log record.
//
//   $ nwdec_service --listen 4750 &
//   $ nwdec_chaos --listen 4751 --upstream-port 4750 --reset-probability 0.05 &
//   $ nwdec_client --port 4751 --auto-request-id < requests.ndjson
#include <unistd.h>

#include <csignal>
#include <string>

#include "client/chaos_transport.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace nwdec;
  cli_parser cli("nwdec_chaos",
                 "deterministic network-fault-injection TCP proxy: "
                 "latency, resets, truncation, partial writes (seeded; "
                 "NWDEC_FAILPOINT places faults exactly)");
  cli.add_int("listen", 0, "proxy port (0 = ephemeral; logged)");
  cli.add_string("upstream-host", "127.0.0.1", "daemon host");
  cli.add_int("upstream-port", -1, "daemon TCP port (required)");
  cli.add_int("seed", 2009, "fault-decision seed (same seed, same chaos)");
  cli.add_double("reset-probability", 0.0,
                 "per-chunk probability of a connection reset (RST)");
  cli.add_double("truncate-probability", 0.0,
                 "per-chunk probability of forwarding a prefix, then RST");
  cli.add_int("max-latency-ms", 0,
              "inject uniform [0,this] delay per forwarded chunk");
  cli.add_int("max-write-bytes", 0,
              "forward in pieces of at most this many bytes (0 = whole "
              "chunks); exercises short-read reassembly");
  try {
    if (!cli.parse(argc, argv)) return 0;

    failpoints::arm_from_env();
    const std::int64_t upstream = cli.get_int("upstream-port");
    if (upstream < 0 || upstream > 65535) {
      throw invalid_argument_error("--upstream-port is required (0..65535)");
    }
    api::chaos_options options;
    options.listen_port =
        static_cast<std::uint16_t>(cli.get_int("listen"));
    options.upstream_host = cli.get_string("upstream-host");
    options.upstream_port = static_cast<std::uint16_t>(upstream);
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.reset_probability = cli.get_double("reset-probability");
    options.truncate_probability = cli.get_double("truncate-probability");
    options.max_latency_ms =
        static_cast<int>(cli.get_int("max-latency-ms"));
    options.max_write_bytes =
        static_cast<std::size_t>(cli.get_int("max-write-bytes"));
    api::chaos_transport proxy(options);
    logging::event(logging::level::info, "chaos", "listening")
        .field("port", proxy.port())
        .field("upstream", options.upstream_port)
        .field("seed", options.seed);
    proxy.start();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (g_stop == 0) ::usleep(50'000);
    proxy.stop();
    const api::chaos_stats stats = proxy.stats();
    logging::event(logging::level::info, "chaos", "stopped")
        .field("connections", stats.connections)
        .field("resets", stats.resets)
        .field("truncations", stats.truncations)
        .field("delayed_chunks", stats.delayed_chunks);
    return 0;
  } catch (const std::exception& failure) {
    logging::event(logging::level::error, "chaos", "fatal")
        .field("error", failure.what());
    return 1;
  }
}
