// The HTTP/1.1 gateway: POST /v1/rpc must carry the NDJSON protocol with
// byte-identical response lines (same dispatcher, different dressing),
// status codes must follow the error-code mapping, keep-alive must hold
// a connection across requests, the transport-level refusals (400, 404,
// 405, 411, 413) must fire, and GET /v1/jobs/{id}/events must stream SSE
// frames whose terminal "result" payload is byte-identical to a status
// {"wait": true} response's.
#include "api/http_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "service/sweep_service.h"
#include "util/json.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  return fd;
}

void send_raw(int fd, const std::string& bytes) {
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

std::string read_to_eof(int fd) {
  std::string all;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    all.append(chunk, static_cast<std::size_t>(n));
  }
  return all;
}

// One full request/response exchange on a fresh connection, read to EOF.
std::string roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  send_raw(fd, request);
  const std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

std::string post_rpc(const std::string& body, bool keep_alive = false) {
  return "POST /v1/rpc HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) +
         (keep_alive ? "\r\n" : "\r\nConnection: close\r\n") + "\r\n" + body;
}

// Reads exactly one Content-Length-framed response off a kept-alive
// connection.
std::string read_one_response(int fd) {
  std::string buffer;
  char chunk[4096];
  std::size_t header_end = std::string::npos;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return buffer;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string lower = [&] {
    std::string text = buffer.substr(0, header_end);
    for (char& c : text) c = static_cast<char>(std::tolower(c));
    return text;
  }();
  std::size_t length = 0;
  const std::size_t marker = lower.find("content-length:");
  EXPECT_NE(marker, std::string::npos) << buffer;
  if (marker != std::string::npos) {
    length = static_cast<std::size_t>(
        std::stoull(lower.substr(marker + 15)));
  }
  const std::size_t total = header_end + 4 + length;
  while (buffer.size() < total) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return buffer.substr(0, total);
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// Decodes a chunked Transfer-Encoding body back to the raw byte stream.
std::string dechunk(const std::string& body) {
  std::string out;
  std::size_t cursor = 0;
  for (;;) {
    const std::size_t line_end = body.find("\r\n", cursor);
    if (line_end == std::string::npos) break;
    const std::size_t size =
        std::stoull(body.substr(cursor, line_end - cursor), nullptr, 16);
    if (size == 0) break;
    out += body.substr(line_end + 2, size);
    cursor = line_end + 2 + size + 2;  // data + trailing CRLF
  }
  return out;
}

struct test_server {
  service::sweep_service service = make_service();
  dispatcher handler;
  http_transport transport;
  std::thread thread;

  test_server() : handler(service, {2, 64}), transport(0, 16, tcp_limits{}) {
    thread = std::thread([this] { transport.serve(handler); });
  }
  ~test_server() {
    transport.shutdown();
    thread.join();
  }
  std::uint16_t port() { return transport.port(); }
};

const std::string kSweep =
    R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.05],"trials":60})";

TEST(HttpTransportTest, RpcBodyIsByteIdenticalToDirectDispatch) {
  // Reference bytes: the same line through a dispatcher on a fresh
  // service (same construction order, so same provenance counters).
  std::string direct;
  {
    service::sweep_service service = make_service();
    dispatcher reference(service, {2, 64});
    direct = reference.handle_line(kSweep);
  }
  test_server server;
  const std::string response = roundtrip(server.port(), post_rpc(kSweep));
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(body_of(response), direct);
}

TEST(HttpTransportTest, MultiLineBodyAnswersNdjson) {
  std::vector<std::string> direct;
  {
    service::sweep_service service = make_service();
    dispatcher reference(service, {2, 64});
    direct.push_back(reference.handle_line(kSweep));
    direct.push_back(reference.handle_line(R"({"id":2,"kind":"stats"})"));
  }
  test_server server;
  const std::string response = roundtrip(
      server.port(), post_rpc(kSweep + "\n" + R"({"id":2,"kind":"stats"})"));
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: application/x-ndjson"),
            std::string::npos);
  EXPECT_EQ(body_of(response), direct[0] + direct[1]);
}

TEST(HttpTransportTest, KeepAliveServesSequentialRequests) {
  test_server server;
  const int fd = connect_to(server.port());
  send_raw(fd, post_rpc(R"({"id":1,"kind":"stats"})", true));
  const std::string first = read_one_response(fd);
  EXPECT_EQ(first.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << first;
  // The same connection answers again: keep-alive held.
  send_raw(fd, post_rpc(R"({"id":2,"kind":"stats"})", true));
  const std::string second = read_one_response(fd);
  EXPECT_EQ(second.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << second;
  EXPECT_NE(body_of(second).find("\"id\":2"), std::string::npos);
  ::close(fd);
}

TEST(HttpTransportTest, ErrorCodeDrivesTheHttpStatus) {
  test_server server;
  // A protocol-level error line maps through status_for_code: a malformed
  // NDJSON request is a plain 400 with the dispatcher's own error body.
  const std::string bad =
      roundtrip(server.port(), post_rpc(R"({"id":1,"kind":"nope"})"));
  EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << bad;
  EXPECT_NE(body_of(bad).find("\"ok\":false"), std::string::npos);

  // An unknown job on status: still a 400-class answer, body intact.
  const std::string unknown = roundtrip(
      server.port(), post_rpc(R"({"id":1,"kind":"status","job":99999})"));
  EXPECT_EQ(unknown.rfind("HTTP/1.1 400", 0), 0u) << unknown;

  // A coded error picks its own status: an idempotency key reused with a
  // different payload is a 409 Conflict.
  const std::string first = roundtrip(
      server.port(),
      post_rpc(R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
               R"("lengths":[8],"trials":40,"request_id":"k"})"));
  EXPECT_EQ(first.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << first;
  const std::string conflict = roundtrip(
      server.port(),
      post_rpc(R"({"id":2,"kind":"sweep","async":true,"codes":["BGC"],)"
               R"("lengths":[8],"trials":41,"request_id":"k"})"));
  EXPECT_EQ(conflict.rfind("HTTP/1.1 409 ", 0), 0u) << conflict;
  EXPECT_NE(body_of(conflict).find("\"code\":\"request_id_conflict\""),
            std::string::npos);
}

// Every request the parser completes, in order, after feeding `bytes` in
// two reads split at `split`.
std::vector<http::request> parse_split(const std::string& bytes,
                                       std::size_t split) {
  http::request_parser parser(0);
  std::vector<http::request> parsed;
  for (const std::string& part :
       {bytes.substr(0, split), bytes.substr(split)}) {
    parser.consume(part.data(), part.size());
    while (parser.state() == http::request_parser::phase::complete) {
      parsed.push_back(parser.result());
      parser.reset();
    }
    EXPECT_NE(parser.state(), http::request_parser::phase::failed)
        << "split at " << split << ": " << parser.error_reason();
  }
  return parsed;
}

TEST(HttpRequestParserTest, PipelinedRequestsSurviveEverySplitPoint) {
  // Two pipelined RPCs, the second with bare-LF header lines: whichever
  // byte a read boundary falls on, the parser yields exactly these two
  // requests, identical to the unsplit parse.
  const std::string bytes =
      post_rpc(R"({"id":1,"kind":"stats"})", true) +
      "POST /v1/rpc?trace=1 HTTP/1.1\nHost: t\nContent-Length: 24\n"
      "Connection: close\n\n" +
      R"({"id":2,"kind":"flush"})" "\n";
  const std::vector<http::request> whole = parse_split(bytes, bytes.size());
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].body, R"({"id":1,"kind":"stats"})");
  EXPECT_TRUE(whole[0].keep_alive);
  EXPECT_EQ(whole[1].path(), "/v1/rpc");
  EXPECT_EQ(whole[1].body, std::string(R"({"id":2,"kind":"flush"})") + "\n");
  EXPECT_FALSE(whole[1].keep_alive);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::vector<http::request> parsed = parse_split(bytes, split);
    ASSERT_EQ(parsed.size(), 2u) << "split at " << split;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(parsed[k].method, whole[k].method) << "split at " << split;
      EXPECT_EQ(parsed[k].target, whole[k].target) << "split at " << split;
      EXPECT_EQ(parsed[k].version, whole[k].version) << "split at " << split;
      EXPECT_EQ(parsed[k].headers, whole[k].headers) << "split at " << split;
      EXPECT_EQ(parsed[k].body, whole[k].body) << "split at " << split;
      EXPECT_EQ(parsed[k].keep_alive, whole[k].keep_alive)
          << "split at " << split;
    }
  }
}

TEST(HttpTransportTest, TransportLevelRefusals) {
  test_server server;
  const std::string missing =
      roundtrip(server.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << missing;

  const std::string method =
      roundtrip(server.port(), "GET /v1/rpc HTTP/1.1\r\n\r\n");
  EXPECT_EQ(method.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
      << method;

  const std::string mangled = roundtrip(server.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_EQ(mangled.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << mangled;

  const std::string chunked = roundtrip(
      server.port(),
      "POST /v1/rpc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(chunked.rfind("HTTP/1.1 411 Length Required\r\n", 0), 0u)
      << chunked;

  const std::string version =
      roundtrip(server.port(), "GET /metrics HTTP/0.9\r\n\r\n");
  EXPECT_EQ(version.rfind("HTTP/1.1 505 ", 0), 0u) << version;
}

TEST(HttpTransportTest, OversizedRequestAnswers413AndCloses) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  tcp_limits tiny;
  tiny.max_request_bytes = 256;
  http_transport transport(0, 16, tiny);
  std::thread server([&] { transport.serve(handler); });

  const std::string big(1024, 'x');
  const std::string response =
      roundtrip(transport.port(), post_rpc(big));
  EXPECT_EQ(response.rfind("HTTP/1.1 413 ", 0), 0u) << response;
  EXPECT_NE(body_of(response).find("\"code\":\"payload_too_large\""),
            std::string::npos);

  transport.shutdown();
  server.join();
}

TEST(HttpTransportTest, MetricsRouteServesTheExposition) {
  test_server server;
  const std::string response = roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n# TYPE "), std::string::npos) << response;
  EXPECT_NE(response.find("nwdec_uptime_seconds"), std::string::npos);

  // The scrape route only answers GET, and a request line without a
  // version is refused before any route.
  const std::string method =
      roundtrip(server.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(method.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
      << method;
  const std::string malformed =
      roundtrip(server.port(), "POST /metrics\r\n\r\n");
  EXPECT_EQ(malformed.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << malformed;
}

TEST(HttpTransportTest, SseStreamEndsWithTheExactResultPayload) {
  test_server server;
  // Submit async over HTTP, wait for completion over HTTP.
  const std::string submit = roundtrip(
      server.port(),
      post_rpc(R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
               R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})"));
  const json_value submitted = json_parse(body_of(submit));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submitted.at("job").as_number());
  const std::string status_response = roundtrip(
      server.port(),
      post_rpc(R"({"id":2,"kind":"status","job":)" + std::to_string(job) +
               R"(,"wait":true})"));
  const json_value status_root = json_parse(body_of(status_response));
  const json_value* status_result = status_root.find("result");
  ASSERT_NE(status_result, nullptr) << status_response;

  const std::string stream = roundtrip(
      server.port(), "GET /v1/jobs/" + std::to_string(job) +
                         "/events HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(stream.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << stream;
  EXPECT_NE(stream.find("Content-Type: text/event-stream"),
            std::string::npos);

  // Dechunk, split SSE frames, collect the data: payloads.
  const std::string frames = dechunk(body_of(stream));
  std::vector<std::string> data_lines;
  std::vector<std::string> event_types;
  std::size_t cursor = 0;
  while (cursor < frames.size()) {
    std::size_t end = frames.find('\n', cursor);
    if (end == std::string::npos) end = frames.size();
    const std::string line = frames.substr(cursor, end - cursor);
    cursor = end + 1;
    if (line.rfind("data: ", 0) == 0) data_lines.push_back(line.substr(6));
    if (line.rfind("event: ", 0) == 0) event_types.push_back(line.substr(7));
  }
  ASSERT_EQ(event_types.size(), 3u) << frames;
  EXPECT_EQ(event_types[0], "queued");
  EXPECT_EQ(event_types[1], "running");
  EXPECT_EQ(event_types[2], "done");
  ASSERT_EQ(data_lines.size(), 3u);

  // The terminal frame's "result" is byte-identical to the status one.
  const json_value terminal = json_parse(data_lines.back());
  EXPECT_EQ(json_render(terminal.at("result"), json_writer::style::compact),
            json_render(*status_result, json_writer::style::compact));

  // ?from= resumes after a cursor: only the terminal frame remains.
  const std::string resumed = roundtrip(
      server.port(), "GET /v1/jobs/" + std::to_string(job) +
                         "/events?from=2 HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string resumed_frames = dechunk(body_of(resumed));
  EXPECT_EQ(resumed_frames.find("event: queued"), std::string::npos);
  EXPECT_NE(resumed_frames.find("event: done"), std::string::npos);

  const std::string unknown = roundtrip(
      server.port(), "GET /v1/jobs/424242/events HTTP/1.1\r\n\r\n");
  EXPECT_EQ(unknown.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << unknown;
}

}  // namespace
}  // namespace nwdec::api
