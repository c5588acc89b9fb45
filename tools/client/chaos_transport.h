// api::chaos_transport: a deterministic network-fault-injection proxy
// (part of the client kit, not the server library).
//
// An in-process TCP proxy that sits between a client and an
// nwdec_service listener and misbehaves on purpose: injected latency,
// connection resets (real RSTs, via SO_LINGER 0), truncated forwards
// (a prefix of a chunk arrives, then the reset), and partial writes
// (chunks split into small pieces, exercising the peer's reassembly
// loops). The chaos tests run clients through it to prove the
// idempotent-retry ladder converges: every job completes byte-identical
// with zero duplicate engine runs, no matter where the proxy cuts.
//
// Determinism: all fault decisions come from a splitmix64 stream
// (rng::counter_seed steps) seeded with (options.seed, connection index),
// so a failing test case replays exactly from its seed. For placing a
// fault at one precise moment the proxy also crosses util/failpoint
// markers -- arm them with the standard grammar (skip counts included):
//
//   * "chaos.connect.upstream" -- fire `error` to refuse the upstream
//     connect (the client sees an immediate close, as if the daemon
//     were down);
//   * "chaos.forward.request"  -- fire `error` to reset the connection
//     instead of forwarding a client->server chunk;
//   * "chaos.forward.response" -- the same for a server->client chunk
//     (the reset that eats a response after the work was done -- the
//     case request_id dedup exists for).
//
// set_upstream_port() repoints the proxy (thread-safe; applies to new
// connections), which is how the kill-restart soak swaps in a restarted
// daemon without the clients ever changing address.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/net.h"

namespace nwdec::api {

struct chaos_options {
  /// Proxy listen port (0 = ephemeral; read it back with port()).
  std::uint16_t listen_port = 0;
  std::string upstream_host = "127.0.0.1";
  std::uint16_t upstream_port = 0;
  /// Seeds every fault decision; same seed, same chaos.
  std::uint64_t seed = 2009;
  /// Per-chunk probability of resetting the connection (RST both ways).
  double reset_probability = 0.0;
  /// Per-chunk probability of forwarding only a prefix, then resetting.
  double truncate_probability = 0.0;
  /// Injected delay per chunk: uniform [0, max_latency_ms] (0 = none).
  int max_latency_ms = 0;
  /// Forward in pieces of at most this many bytes (0 = whole chunks);
  /// exercises short-read/short-write handling on both sides.
  std::size_t max_write_bytes = 0;
};

/// Counters of what the proxy actually did (monotonic since start()).
struct chaos_stats {
  std::uint64_t connections = 0;
  std::uint64_t resets = 0;       ///< injected resets (truncations included)
  std::uint64_t truncations = 0;  ///< resets that forwarded a prefix first
  std::uint64_t delayed_chunks = 0;
};

class chaos_transport {
 public:
  /// Binds and listens immediately; start() begins accepting. Throws
  /// nwdec::error on socket failure.
  explicit chaos_transport(chaos_options options);
  ~chaos_transport();
  chaos_transport(const chaos_transport&) = delete;
  chaos_transport& operator=(const chaos_transport&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  void start();
  /// Stops accepting, resets every live proxied connection, and joins
  /// the proxy threads. Idempotent.
  void stop();

  /// Repoints new connections (live ones keep their upstream). The
  /// kill-restart soak calls this after reviving the daemon on a fresh
  /// ephemeral port.
  void set_upstream_port(std::uint16_t port) {
    upstream_port_.store(port, std::memory_order_relaxed);
  }

  chaos_stats stats() const;

 private:
  void accept_loop();
  void pump(int client, std::uint64_t connection_seed);
  /// RST both directions: SO_LINGER 0 + close, so the peers observe a
  /// genuine connection reset, not an orderly shutdown.
  void reset_pair(int client, int upstream);
  void deregister(int client, int upstream);

  chaos_options options_;
  net::listener listener_;
  std::atomic<std::uint16_t> upstream_port_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> truncations_{0};
  std::atomic<std::uint64_t> delayed_chunks_{0};

  std::mutex mutex_;  ///< guards fds_ and active_ (thread registry)
  std::condition_variable idle_cv_;
  std::vector<int> fds_;  ///< every live proxied fd, for stop()
  std::size_t active_ = 0;
  std::thread accept_thread_;
};

}  // namespace nwdec::api
