// util::net: the socket primitives every networked component shares --
// the listener of the server chassis (api/socket_server) and the chaos
// proxy (client/chaos_transport), and the byte-moving helpers of the
// transports, the resilient client and the benchmark's load generator.
//
// POSIX write()/send() may transfer FEWER bytes than asked -- a full socket
// buffer, a signal, a small SO_SNDBUF -- and may fail spuriously with
// EINTR. A call site that does not loop silently truncates its payload the
// first time the kernel is busy (exactly the bug class the hostile-network
// hardening PR audited out of the transports), so every full-buffer
// transfer in the tree goes through these helpers instead of raw syscalls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace nwdec::net {

/// Sends the whole buffer: loops on short writes and EINTR, MSG_NOSIGNAL
/// so a peer that hung up surfaces as a false return (with errno set by
/// the failing send) instead of SIGPIPE. Returns false once the peer is
/// unreachable; `data` may have been partially delivered then.
bool send_all(int fd, const void* data, std::size_t size);
bool send_all(int fd, const std::string& data);

/// Connects a blocking IPv4 TCP socket to host:port and returns the fd;
/// -1 on failure (errno set). `connect_timeout_ms` > 0 bounds the connect
/// itself (non-blocking connect + poll), so a black-holed peer cannot pin
/// the caller for the kernel's minutes-long default.
int connect_tcp(const std::string& host, std::uint16_t port,
                int connect_timeout_ms = 0);

/// Reads up to `size` bytes with a deadline: polls for readability up to
/// `timeout_ms` (< 0 = block forever), then read()s once. Returns the
/// byte count, 0 on orderly EOF, -1 on error, -2 on timeout (nothing
/// readable before the deadline). EINTR is retried with the remaining
/// time budget.
long read_some(int fd, void* buffer, std::size_t size, int timeout_ms);

/// A listening IPv4 TCP socket (any address, SO_REUSEADDR) and the wake
/// pipe that ends its accept loop. Binds and listens on construction;
/// port 0 picks an ephemeral port, which port() reports. Throws
/// nwdec::error, prefixed with `owner`, on any socket failure.
class listener {
 public:
  listener(std::uint16_t port, int backlog, const char* owner);
  ~listener();
  listener(const listener&) = delete;
  listener& operator=(const listener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Waits for the next connection and returns its fd; -1 once wake()
  /// has been called (or the wait itself fails). EINTR and failed
  /// accepts are retried.
  int accept() const;

  /// Ends accept() -- now and on every later call. Async-signal-safe.
  void wake() const;

  /// Write end of the wake pipe: write(wake_fd(), "x", 1) is wake() for
  /// a signal handler that cannot reach this object.
  int wake_fd() const { return wake_write_; }

 private:
  int fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace nwdec::net
