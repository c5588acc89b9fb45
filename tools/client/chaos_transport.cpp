#include "client/chaos_transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "util/failpoint.h"
#include "util/net.h"
#include "util/rng.h"

namespace nwdec::api {

namespace {

/// True when the (armed) failpoint fires -- the error action becomes a
/// "inject the fault here" signal instead of an exception.
bool failpoint_fires(const char* name) {
  try {
    NWDEC_FAILPOINT(name);
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

}  // namespace

chaos_transport::chaos_transport(chaos_options options)
    : options_(std::move(options)),
      listener_(options_.listen_port, 64, "chaos_transport"),
      upstream_port_(options_.upstream_port) {}

chaos_transport::~chaos_transport() { stop(); }

void chaos_transport::start() {
  if (accept_thread_.joinable()) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void chaos_transport::stop() {
  if (!accept_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_relaxed);
  listener_.wake();
  accept_thread_.join();
  std::unique_lock<std::mutex> lock(mutex_);
  for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  stopping_.store(false, std::memory_order_relaxed);
}

chaos_stats chaos_transport::stats() const {
  chaos_stats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.resets = resets_.load(std::memory_order_relaxed);
  out.truncations = truncations_.load(std::memory_order_relaxed);
  out.delayed_chunks = delayed_chunks_.load(std::memory_order_relaxed);
  return out;
}

void chaos_transport::accept_loop() {
  for (;;) {
    const int client = listener_.accept();
    if (client < 0) return;  // stop requested
    const std::uint64_t index =
        connections_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++active_;
    }
    std::thread([this, client, index] {
      pump(client, rng::counter_seed(options_.seed ^ (index + 1), 0));
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      idle_cv_.notify_all();
    }).detach();
  }
}

void chaos_transport::reset_pair(int client, int upstream) {
  // SO_LINGER 0 turns close() into an RST, so the peers see a genuine
  // connection reset (ECONNRESET on their next read/write), not a polite
  // EOF that could be mistaken for end-of-stream.
  const linger hard{1, 0};
  ::setsockopt(client, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(client);
  if (upstream >= 0) {
    ::setsockopt(upstream, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(upstream);
  }
  resets_.fetch_add(1, std::memory_order_relaxed);
}

void chaos_transport::deregister(int client, int upstream) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fds_.erase(std::remove_if(fds_.begin(), fds_.end(),
                            [&](int fd) {
                              return fd == client || fd == upstream;
                            }),
             fds_.end());
}

void chaos_transport::pump(int client, std::uint64_t connection_seed) {
  // The fault-decision stream: one splitmix64 step per draw.
  std::uint64_t stream = connection_seed;
  const auto draw = [&stream] {
    stream = rng::counter_seed(stream, 0);
    return stream;
  };
  const auto chance = [&](double probability) {
    if (probability <= 0.0) return false;
    return (static_cast<double>(draw() >> 11) /
            static_cast<double>(1ULL << 53)) < probability;
  };
  const auto uniform_ms = [&](int max_ms) {
    return static_cast<int>(draw() % static_cast<std::uint64_t>(max_ms + 1));
  };

  if (failpoint_fires("chaos.connect.upstream")) {
    reset_pair(client, -1);
    return;
  }
  const int upstream = net::connect_tcp(
      options_.upstream_host,
      upstream_port_.load(std::memory_order_relaxed), 2000);
  if (upstream < 0) {
    // No daemon behind us: the client observes exactly what a dead
    // server looks like (reset on arrival).
    reset_pair(client, -1);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fds_.push_back(client);
    fds_.push_back(upstream);
  }

  // Orderly teardown (peer hung up / stop requested): no RST, just
  // deregister and close both sides.
  const auto teardown = [&] {
    deregister(client, upstream);
    ::close(client);
    ::close(upstream);
  };

  // Forward one chunk with the configured mischief; false = the pair is
  // torn down (reset by us, or a peer is gone) -- sockets are closed.
  const auto forward = [&](int from, int to, const char* marker) {
    char chunk[4096];
    const ssize_t n = ::read(from, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) {
      teardown();
      return false;
    }
    std::size_t length = static_cast<std::size_t>(n);
    if (failpoint_fires(marker) || chance(options_.reset_probability)) {
      deregister(client, upstream);
      reset_pair(client, upstream);
      return false;
    }
    if (chance(options_.truncate_probability)) {
      // A prefix leaks through, then the wire dies: the hardest case
      // for a peer's framing (partial line, then reset).
      length = static_cast<std::size_t>(draw() % (length + 1));
      truncations_.fetch_add(1, std::memory_order_relaxed);
      if (length > 0) net::send_all(to, chunk, length);
      deregister(client, upstream);
      reset_pair(client, upstream);
      return false;
    }
    if (options_.max_latency_ms > 0) {
      delayed_chunks_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(uniform_ms(options_.max_latency_ms)));
    }
    const std::size_t piece = options_.max_write_bytes > 0
                                  ? options_.max_write_bytes
                                  : length;
    for (std::size_t offset = 0; offset < length; offset += piece) {
      if (!net::send_all(to, chunk + offset,
                         std::min(piece, length - offset))) {
        teardown();
        return false;
      }
    }
    return true;
  };

  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) break;
    pollfd fds[2] = {{client, POLLIN, 0}, {upstream, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!forward(client, upstream, "chaos.forward.request")) return;
    }
    if ((fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!forward(upstream, client, "chaos.forward.response")) return;
    }
  }
  teardown();
}

}  // namespace nwdec::api
