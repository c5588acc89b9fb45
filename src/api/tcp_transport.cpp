#include "api/tcp_transport.h"

#include <string>

#include "api/transport_metrics.h"
#include "util/net.h"

namespace nwdec::api {

namespace {

// Response lines (and pushed subscription events) go straight to the
// socket; a failed send flips peer_gone so the read loop stops.
class socket_sink final : public line_sink {
 public:
  socket_sink(int fd, bool& peer_gone) : fd_(fd), peer_gone_(peer_gone) {}
  bool write(const std::string& line) override {
    if (net::send_all(fd_, line)) return true;
    peer_gone_ = true;
    return false;
  }

 private:
  int fd_;
  bool& peer_gone_;
};

}  // namespace

tcp_transport::tcp_transport(std::uint16_t port, int backlog,
                             int idle_timeout_ms)
    : tcp_transport(port, backlog, [&] {
        tcp_limits limits;
        limits.idle_timeout_ms = idle_timeout_ms;
        return limits;
      }()) {}

tcp_transport::tcp_transport(std::uint16_t port, int backlog,
                             tcp_limits limits)
    : socket_server(port, backlog, limits) {}

std::string tcp_transport::shed_response() const {
  return error_response_json(
      json_value(),
      "connection limit (" + std::to_string(limits().max_connections) +
          ") reached; retry after backoff",
      "too_many_connections");
}

void tcp_transport::serve_connection(int client, dispatcher& dispatch) {
  connection_reader reader(client, limits());
  std::string buffer;
  bool peer_gone = false;
  socket_sink sink(client, peer_gone);
  const auto answer = [&](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // nc/telnet
    if (line.empty()) return;
    dispatch.handle_stream(line, sink);
  };
  // A bound that closes the connection says why (a client stuck
  // mid-request deserves a diagnosis, not a silent RST), and the buffered
  // fragments are dropped: answering them after announcing the close
  // would contradict it.
  const auto close_with = [&](const std::string& what, const char* code) {
    net::send_all(client, error_response_json(json_value(), what, code));
    buffer.clear();
  };
  for (;;) {
    const connection_reader::status status = reader.next(!buffer.empty());
    if (status == connection_reader::status::idle_timeout) {
      close_with("connection idle for too long; closing", "idle_timeout");
      break;
    }
    if (status == connection_reader::status::read_timeout) {
      close_with(
          "request line incomplete past the read deadline; closing "
          "connection",
          "read_timeout");
      break;
    }
    if (status == connection_reader::status::closed) break;
    buffer.append(reader.data(), reader.size());
    std::size_t newline = 0;
    while (!peer_gone && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      reader.request_done();  // the next line's budget starts now
      answer(std::move(line));
    }
    if (buffer.size() > limits().max_request_bytes) {
      // Hard cap on one pending request line: a peer streaming bytes
      // without ever sending a newline must cost bounded memory. Real
      // requests are a few hundred bytes; the largest sane grids are
      // well under the 4 MiB default.
      transport_metrics::get().oversized.inc();
      close_with("request line exceeds the " +
                     std::to_string(limits().max_request_bytes) +
                     " byte limit; closing connection",
                 "payload_too_large");
      break;
    }
    if (peer_gone) break;
  }
  // A final request without a trailing newline still gets its answer --
  // the stdio transport (std::getline) serves such scripts, and the two
  // transports promise identical behavior.
  if (!peer_gone && !buffer.empty()) {
    answer(std::move(buffer));
  }
  // The chassis deregisters and closes the fd after this returns.
}

}  // namespace nwdec::api
