// api::socket_server -- the listener/lifecycle chassis shared by every
// socket front end of the service (the raw NDJSON tcp_transport and the
// HTTP/1.1 http_transport).
//
// The chassis owns everything that is protocol-independent and easy to
// get wrong twice: bind/listen (IPv4 any, SO_REUSEADDR, ephemeral-port
// reporting), the accept loop with its async-signal-safe shutdown wake
// pipe, connection registration and accept-shedding at max_connections,
// one detached thread per connection with deregister-before-close
// bookkeeping, the connection wait (connection_reader: the idle and
// read-deadline clocks around poll), and graceful drain (close the
// dispatcher's event streams, half-close, bounded wait, cancel the jobs
// still running when the window expires, force-close). A protocol front
// end derives and implements exactly two things: serve_connection() --
// the per-connection framing and answer loop -- and shed_response() --
// the bytes an over-cap connection is answered with before closing (an
// NDJSON error line or an HTTP 503, each in its own protocol).
//
// The per-connection resource bounds (tcp_limits) are shared verbatim
// across protocols: the same --idle-timeout / --read-deadline /
// --max-request-bytes / --max-connections / --drain-ms configuration
// protects the NDJSON socket and the HTTP gateway alike.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "api/transport.h"

namespace nwdec::api {

/// Per-connection resource bounds (see tcp_transport.h for the error
/// code each bound answers with on the NDJSON protocol; the HTTP
/// gateway maps them onto status codes). The defaults are the unbounded
/// library behavior: no timeouts, no connection cap, a 4 MiB request
/// cap, immediate shutdown; the daemon sets every bound from its flags.
struct tcp_limits {
  /// Close a connection that sends no bytes for this long (0 = never).
  int idle_timeout_ms = 0;
  /// Close a connection whose partial request is this old (0 = never).
  /// Defeats slowloris peers that dribble bytes forever.
  int read_deadline_ms = 0;
  /// Error out a request past this many bytes.
  std::size_t max_request_bytes = std::size_t{4} << 20;  // 4 MiB
  /// Shed accepts past this many live connections (0 = unbounded).
  std::size_t max_connections = 0;
  /// Graceful-drain window on shutdown: half-close connections, wait
  /// this long for in-flight requests and jobs to finish, then
  /// force-close and cancel every job still outstanding (0 = at once).
  int drain_ms = 0;
};

/// One connection's read side under the tcp_limits clocks -- the single
/// wait every socket front end uses. Two clocks run: while no request is
/// part-received, the idle clock (idle_timeout_ms, restarted by every
/// read); once one is, the read-deadline clock (read_deadline_ms from
/// the request's first byte, restarted by request_done()) -- a slowloris
/// peer dribbling one byte per poll still runs out of budget. A partial
/// request with no read deadline stays on the idle clock. The front end
/// answers each timeout in its own protocol; the reader counts it.
class connection_reader {
 public:
  enum class status { data, closed, idle_timeout, read_timeout };

  connection_reader(int fd, const tcp_limits& limits)
      : fd_(fd), limits_(limits) {}

  /// Waits for the next bytes and reads them into data()/size().
  /// `partial` says whether a request is part-received; closed covers
  /// EOF and every socket error.
  status next(bool partial);

  /// A request completed: the next one's read deadline counts from now.
  void request_done();

  const char* data() const { return chunk_; }
  std::size_t size() const { return size_; }

 private:
  int fd_;
  const tcp_limits& limits_;
  std::chrono::steady_clock::time_point partial_since_{};
  char chunk_[4096];
  std::size_t size_ = 0;
};

class socket_server : public transport {
 public:
  /// Binds and listens immediately (so port() is valid before serve());
  /// port 0 picks an ephemeral port. Throws nwdec::error on any socket
  /// failure.
  socket_server(std::uint16_t port, int backlog, tcp_limits limits);
  ~socket_server() override;
  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  /// The bound port (the ephemeral pick when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Accept loop; returns 0 after shutdown() completes it. When shutdown
  /// begins, the dispatcher's event streams are closed (subscription
  /// pumps end like any other in-flight request); the drain window
  /// (tcp_limits::drain_ms) then bounds both the connections and the
  /// dispatcher's jobs: every job still queued or running when it closes
  /// is cancelled, whether or not a connection is left (a force-closed
  /// socket alone cannot release a thread waiting on a synchronous
  /// evaluation, and an async job would pin the process).
  int serve(dispatcher& dispatch) override;

  /// Requests serve() to stop; safe from any thread, idempotent.
  void shutdown();

  /// Write end of the shutdown wake pipe: write(shutdown_fd(), "x", 1)
  /// is the async-signal-safe equivalent of shutdown() for use inside a
  /// signal handler.
  int shutdown_fd() const { return wake_write_; }

  /// True once shutdown has been observed by serve() (the HTTP gateway
  /// closes every response from then on).
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

 protected:
  const tcp_limits& limits() const { return limits_; }

  /// The per-connection protocol loop. Runs on a detached thread; must
  /// NOT close `client` or touch the registration bookkeeping -- the
  /// chassis deregisters and closes after it returns.
  virtual void serve_connection(int client, dispatcher& dispatch) = 0;

  /// The bytes an accept past max_connections is answered with before
  /// the immediate close (protocol-appropriate: an NDJSON
  /// "too_many_connections" error line, an HTTP 503).
  virtual std::string shed_response() const = 0;

 private:
  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
  tcp_limits limits_;
  std::atomic<bool> draining_{false};

  // Connection threads run detached (a long-lived daemon must not hoard
  // one joinable thread per connection ever served); serve() instead
  // counts them and blocks on idle_cv_ until the last one deregisters.
  std::mutex mutex_;  ///< guards clients_ and active_
  std::condition_variable idle_cv_;
  std::vector<int> clients_;
  std::size_t active_ = 0;
};

}  // namespace nwdec::api
