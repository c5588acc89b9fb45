#include "api/socket_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "api/transport_metrics.h"
#include "util/log.h"
#include "util/net.h"

namespace nwdec::api {

socket_server::socket_server(std::uint16_t port, int backlog,
                             tcp_limits limits)
    : listener_(port, backlog, "socket_server"), limits_(limits) {}

void socket_server::shutdown() {
  // One byte on the wake pipe; write() is async-signal-safe, so signal
  // handlers can do exactly this through shutdown_fd().
  listener_.wake();
}

connection_reader::status connection_reader::next(bool partial) {
  using clock = std::chrono::steady_clock;
  for (;;) {
    int wait_ms = limits_.idle_timeout_ms > 0 ? limits_.idle_timeout_ms : -1;
    const bool deadlined = partial && limits_.read_deadline_ms > 0;
    if (deadlined) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              partial_since_ +
              std::chrono::milliseconds(limits_.read_deadline_ms) -
              clock::now())
              .count();
      if (remaining <= 0) {
        transport_metrics::get().read_timeouts.inc();
        return status::read_timeout;
      }
      wait_ms = static_cast<int>(remaining);
    }
    if (wait_ms >= 0) {
      pollfd waiting{fd_, POLLIN, 0};
      const int ready = ::poll(&waiting, 1, wait_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return status::closed;
      if (ready == 0) {
        if (deadlined) continue;  // the deadline check above decides
        transport_metrics::get().idle_timeouts.inc();
        return status::idle_timeout;
      }
    }
    const ssize_t n = ::read(fd_, chunk_, sizeof(chunk_));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return status::closed;
    if (!partial) partial_since_ = clock::now();
    size_ = static_cast<std::size_t>(n);
    return status::data;
  }
}

void connection_reader::request_done() {
  partial_since_ = std::chrono::steady_clock::now();
}

int socket_server::serve(dispatcher& dispatch) {
  for (;;) {
    const int client = listener_.accept();
    if (client < 0) break;  // shutdown requested
    {
      // Register before the thread exists so serve()'s drain barrier can
      // never miss a connection that is about to start.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (limits_.max_connections > 0 &&
          active_ >= limits_.max_connections) {
        // Accept-shedding: past the cap every connection thread we could
        // start is one a hostile peer could pin, so answer with the
        // protocol's retry-on-a-fresh-connection response and close
        // inline -- the response is tiny, so the one blocking send here
        // cannot stall the accept loop the way serving would.
        transport_metrics::get().shed.inc();
        net::send_all(client, shed_response());
        ::close(client);
        continue;
      }
      clients_.push_back(client);
      ++active_;
      transport_metrics::get().accepted.inc();
      transport_metrics::get().active.set(static_cast<double>(active_));
    }
    std::thread([this, client, &dispatch] {
      serve_connection(client, dispatch);
      // Deregister before close so a reused fd number can never be
      // confused with this connection by a concurrent shutdown().
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (int& fd : clients_) {
          if (fd == client) {
            std::swap(fd, clients_.back());
            clients_.pop_back();
            break;
          }
        }
        --active_;
        transport_metrics::get().active.set(static_cast<double>(active_));
        idle_cv_.notify_all();
      }
      ::close(client);
    }).detach();
  }

  // Shutdown observed: flip the drain flag and close the event streams
  // BEFORE half-closing anything, so subscribers parked on event streams
  // are released into the same drain window as ordinary requests.
  draining_.store(true, std::memory_order_relaxed);
  dispatch.scheduler().close_event_streams();

  // One drain window of drain_ms (zero: none) bounds everything still in
  // flight: the connections and the jobs.
  std::unique_lock<std::mutex> lock(mutex_);
  const auto drain_start = std::chrono::steady_clock::now();
  const auto drain_deadline =
      drain_start + std::chrono::milliseconds(limits_.drain_ms);
  if (limits_.drain_ms > 0 && active_ > 0) {
    // Graceful drain: half-close every connection -- their reads return
    // 0, so each thread answers what it already buffered and exits --
    // and give in-flight requests until the window closes to finish
    // before the hard close below. Responses still flow during the
    // window (only the read side is shut).
    transport_metrics::get().drains.inc();
    logging::event(logging::level::info, "tcp", "draining")
        .field("connections", active_)
        .field("drain_ms", limits_.drain_ms);
    for (const int client : clients_) ::shutdown(client, SHUT_RD);
    idle_cv_.wait_until(lock, drain_deadline,
                        [this] { return active_ == 0; });
  }
  const std::size_t stragglers = active_;
  lock.unlock();
  // Jobs get the rest of the window -- async ones that no connection
  // waits on included -- and whatever is still queued or running when it
  // closes is cancelled: a force-closed socket cannot unblock a thread
  // waiting inside a synchronous evaluation, and a running job would
  // otherwise pin the process past its drain budget.
  if (stragglers > 0 || !dispatch.scheduler().wait_idle(drain_deadline)) {
    transport_metrics::get().drain_forced.inc(stragglers);
    const std::size_t cancelled = dispatch.scheduler().cancel_all();
    logging::event(logging::level::warn, "tcp", "drain_deadline")
        .field("forced", stragglers)
        .field("cancelled_jobs", cancelled);
  }
  if (limits_.drain_ms > 0) {
    transport_metrics::get().drain_seconds.set(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      drain_start)
            .count());
  }
  lock.lock();
  // Unblock every remaining connection thread (reads AND writes fail
  // from here), then wait for the last one to deregister -- `dispatch`
  // and `this` must outlive them.
  for (const int client : clients_) ::shutdown(client, SHUT_RDWR);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  return 0;
}

}  // namespace nwdec::api
