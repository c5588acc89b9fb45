#include "util/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "util/error.h"

namespace nwdec::net {

bool send_all(int fd, const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

int connect_tcp(const std::string& host, std::uint16_t port,
                int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }
  if (connect_timeout_ms <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return fd;
  }
  // Bounded connect: go non-blocking, start the handshake, poll for
  // writability, then read SO_ERROR for the real outcome.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int started = ::connect(
      fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
  if (started != 0 && errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  if (started != 0) {
    pollfd waiting{fd, POLLOUT, 0};
    const int ready = ::poll(&waiting, 1, connect_timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      errno = ready == 0 ? ETIMEDOUT : errno;
      return -1;
    }
    int error = 0;
    socklen_t length = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0 ||
        error != 0) {
      ::close(fd);
      errno = error != 0 ? error : errno;
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

long read_some(int fd, void* buffer, std::size_t size, int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  int remaining = timeout_ms;
  for (;;) {
    if (timeout_ms >= 0) {
      pollfd waiting{fd, POLLIN, 0};
      const int ready = ::poll(&waiting, 1, remaining);
      if (ready == 0) return -2;
      if (ready < 0) {
        if (errno != EINTR) return -1;
        // Retry with whatever budget the interrupted poll left.
        const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
        remaining = timeout_ms - static_cast<int>(waited.count());
        if (remaining <= 0) return -2;
        continue;
      }
    }
    const ssize_t n = ::read(fd, buffer, size);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

listener::listener(std::uint16_t port, int backlog, const char* owner) {
  const std::string prefix = std::string(owner) + ": ";
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw error(prefix + "cannot create socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_ANY);
  address.sin_port = htons(port);
  const auto fail = [&](const std::string& what) {
    ::close(fd_);
    throw error(prefix + what);
  };
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    fail("cannot bind port " + std::to_string(port) + " (" +
         std::strerror(errno) + ")");
  }
  if (::listen(fd_, backlog) != 0) {
    fail("cannot listen on port " + std::to_string(port));
  }
  socklen_t length = sizeof(address);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &length) !=
      0) {
    fail("cannot read the bound port");
  }
  port_ = ntohs(address.sin_port);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) fail("cannot create the wake pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

listener::~listener() {
  ::close(fd_);
  ::close(wake_read_);
  ::close(wake_write_);
}

int listener::accept() const {
  for (;;) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if ((fds[1].revents & POLLIN) != 0) return -1;  // woken
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return client;
  }
}

void listener::wake() const {
  const char byte = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
}

}  // namespace nwdec::net
