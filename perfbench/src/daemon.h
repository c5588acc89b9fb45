// perfbench process and socket plumbing: one nwdec_service child process
// (launch, readiness probe, peak RSS, shutdown) and the two closed-loop
// client connections the load generator speaks -- NDJSON over TCP and
// HTTP/1.1 keep-alive POSTs to /v1/rpc.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_seconds();

/// A running nwdec_service. The destructor kills and reaps a child that
/// is still running, so no path leaves a daemon behind.
class daemon_process {
 public:
  daemon_process() = default;
  ~daemon_process();
  daemon_process(const daemon_process&) = delete;
  daemon_process& operator=(const daemon_process&) = delete;

  /// Launches `binary` with `args` plus --listen 0 --http-port 0
  /// --log-file `log_path`, waits until both listeners are bound and a
  /// stats request is answered "ok": true, and returns the seconds from
  /// launch to that answer. Throws std::runtime_error on failure.
  double start(const std::string& binary, std::vector<std::string> args,
               const std::string& log_path);

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint16_t http_port() const { return http_port_; }

  /// The child's VmHWM in MiB.
  double peak_rss_mb() const;

  /// SIGKILL and reap.
  void kill_now();
  /// SIGTERM (graceful drain + persistence), reap; SIGKILL after
  /// `grace_ms`. Returns the exit status (-1 when it had to be killed).
  int terminate(int grace_ms = 30000);

 private:
  pid_t pid_ = -1;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// One NDJSON connection (TCP_NODELAY on the client side).
class line_client {
 public:
  explicit line_client(std::uint16_t port);
  ~line_client();
  line_client(const line_client&) = delete;
  line_client& operator=(const line_client&) = delete;

  void send_line(const std::string& line);
  /// The next response line without its newline; throws on EOF/timeout.
  std::string read_line(int timeout_ms = 120000);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One HTTP/1.1 keep-alive connection to the daemon's gateway.
class http_client {
 public:
  explicit http_client(std::uint16_t port);
  ~http_client();
  http_client(const http_client&) = delete;
  http_client& operator=(const http_client&) = delete;

  /// POSTs one NDJSON line to /v1/rpc; returns the response body with
  /// trailing newlines stripped and stores the status code.
  std::string post_rpc(const std::string& line, int& status,
                       int timeout_ms = 120000);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
