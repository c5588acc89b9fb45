// nwdec_client: a resilient command-line client for nwdec_service.
//
// Reads NDJSON request lines from stdin (or a single --request), sends
// each through api::resilient_client -- reconnect with jittered
// exponential backoff, per-request deadlines, automatic retry of
// idempotent requests by error-code class -- and prints each response
// line to stdout. With --auto-request-id every sweep/refine submission
// is minted an idempotency key, so a connection reset mid-flight is
// retried instead of surfaced (the server's dedup window guarantees the
// retry maps to the same job).
//
//   $ nwdec_service --listen 4750 &
//   $ echo '{"id":1,"kind":"sweep","codes":["BGC"],"lengths":[10],
//            "trials":150}' | nwdec_client --port 4750 --auto-request-id
//
// --subscribe JOB switches to subscribe-and-wait mode: stream the job's
// lifecycle events (one NDJSON line each) to stdout until the terminal
// event, reconnecting and resubscribing from the last seen seq across
// connection drops, daemon drains, and slow-consumer evictions.
// --from N resumes a previous stream after sequence number N.
//
//   $ echo '{"id":1,"kind":"sweep","async":true,...}' > submit.ndjson
//   $ job=$(nwdec_client --port 4750 < submit.ndjson | jq .job)
//   $ nwdec_client --port 4750 --subscribe "$job"
//
// Exit status: 0 when every request got a response line (inspect each
// line's "ok" yourself) -- in subscribe mode, when the terminal event
// arrived; 1 when any call exhausted its retry budget at the transport
// layer (the failure is reported on stderr).
#include <iostream>
#include <string>

#include "client/resilient_client.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/log.h"

int main(int argc, char** argv) {
  using namespace nwdec;
  cli_parser cli("nwdec_client",
                 "resilient NDJSON client: stdin request lines to an "
                 "nwdec_service TCP port, with reconnect, backoff, and "
                 "idempotent retries");
  cli.add_string("host", "127.0.0.1", "service host");
  cli.add_int("port", -1, "service TCP port (required)");
  cli.add_string("request", "",
                 "send this single request line instead of reading stdin");
  cli.add_int("attempts", 5, "total tries per request (>= 1)");
  cli.add_int("timeout-ms", 30000,
              "per-attempt response deadline in milliseconds (0 = none)");
  cli.add_int("connect-timeout-ms", 2000,
              "per-attempt connect budget in milliseconds (0 = OS default)");
  cli.add_int("backoff-ms", 50, "initial retry backoff (doubles, jittered)");
  cli.add_int("backoff-max-ms", 2000, "retry backoff ceiling");
  cli.add_int("seed", 1,
              "seeds backoff jitter and minted request_ids (same seed, "
              "same behavior)");
  cli.add_flag("auto-request-id",
               "mint a request_id for sweep/refine lines that lack one, "
               "making every submission safely retryable");
  cli.add_int("subscribe", -1,
              "stream this job's lifecycle events until its terminal "
              "event instead of reading requests");
  cli.add_int("from", 0,
              "with --subscribe: resume after this sequence number");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::int64_t port = cli.get_int("port");
    if (port < 0 || port > 65535) {
      throw invalid_argument_error("--port is required (0..65535)");
    }
    api::client_options options;
    options.host = cli.get_string("host");
    options.port = static_cast<std::uint16_t>(port);
    options.max_attempts = static_cast<int>(cli.get_int("attempts"));
    options.request_timeout_ms = static_cast<int>(cli.get_int("timeout-ms"));
    options.connect_timeout_ms =
        static_cast<int>(cli.get_int("connect-timeout-ms"));
    options.backoff_initial_ms = static_cast<int>(cli.get_int("backoff-ms"));
    options.backoff_max_ms = static_cast<int>(cli.get_int("backoff-max-ms"));
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.auto_request_id = cli.get_flag("auto-request-id");
    api::resilient_client client(options);

    const std::int64_t subscribe_job = cli.get_int("subscribe");
    if (subscribe_job >= 0) {
      const api::subscribe_result streamed = client.subscribe_wait(
          static_cast<std::uint64_t>(subscribe_job),
          static_cast<std::uint64_t>(cli.get_int("from")),
          [](const std::string& event_line) {
            std::cout << event_line << "\n" << std::flush;
          });
      if (streamed.ok) return 0;
      logging::event(logging::level::error, "client", "subscribe_failed")
          .field("error", streamed.error)
          .field("attempts", streamed.attempts)
          .field("last_seq", streamed.last_seq);
      return 1;
    }

    int exit_code = 0;
    const auto send = [&](const std::string& line) {
      if (line.empty()) return;
      const api::client_result result = client.call(line);
      if (!result.ok) {
        logging::event(logging::level::error, "client", "request_failed")
            .field("error", result.error)
            .field("attempts", result.attempts);
        exit_code = 1;
        return;
      }
      std::cout << result.response << "\n" << std::flush;
    };

    const std::string single = cli.get_string("request");
    if (!single.empty()) {
      send(single);
    } else {
      std::string line;
      while (std::getline(std::cin, line)) send(line);
    }
    return exit_code;
  } catch (const std::exception& failure) {
    logging::event(logging::level::error, "client", "fatal")
        .field("error", failure.what());
    return 1;
  }
}
