// The transport layer: the TCP server must produce byte-identical
// responses to direct dispatch (the transports share one dispatcher by
// construction -- this pins it end to end through real sockets), handle
// concurrent connections, and shut down cleanly.
#include "api/tcp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "service/sweep_service.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

// Minimal blocking NDJSON client: sends every line, reads one response
// line per request, returns them in order.
std::vector<std::string> exchange(std::uint16_t port,
                                  const std::vector<std::string>& lines) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);

  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));

  std::vector<std::string> responses;
  std::string buffer;
  char chunk[4096];
  while (responses.size() < lines.size()) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      responses.push_back(buffer.substr(0, newline + 1));  // keep the \n
      buffer.erase(0, newline + 1);
    }
  }
  ::close(fd);
  return responses;
}

const std::vector<std::string> kScript = {
    R"({"id":1,"kind":"sweep","codes":["TC","BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.04,0.05],"trials":60})",
    R"({"id":2,"kind":"sweep","codes":["TC","BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.04,0.05],"trials":60})",
    R"({"id":3,"kind":"refine","code":"BGC","length":8,"sigma_low":0.02,)"
    R"("sigma_high":0.12,"trials":60,"resolution":0.005})",
    R"({"id":4,"kind":"stats"})",
    R"({"id":5,"kind":"flush"})",
};

TEST(TcpTransportTest, SocketResponsesAreByteIdenticalToDirectDispatch) {
  // Reference: the same script through a dispatcher on a fresh service.
  std::vector<std::string> direct;
  {
    service::sweep_service service = make_service();
    dispatcher reference(service, {1, 64});
    for (const std::string& line : kScript) {
      direct.push_back(reference.handle_line(line));
    }
  }

  service::sweep_service service = make_service();
  dispatcher handler(service, {2, 64});
  tcp_transport transport(0);  // ephemeral port
  std::thread server([&] { transport.serve(handler); });

  const std::vector<std::string> socket_responses =
      exchange(transport.port(), kScript);
  transport.shutdown();
  server.join();

  ASSERT_EQ(socket_responses.size(), kScript.size());
  for (std::size_t k = 0; k < kScript.size(); ++k) {
    EXPECT_EQ(socket_responses[k], direct[k]) << "request " << k;
  }
}

TEST(TcpTransportTest, ServesConcurrentConnections) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {2, 256});
  tcp_transport transport(0);
  std::thread server([&] { transport.serve(handler); });

  // Two clients, distinct grids, issued concurrently; every response must
  // echo its connection's own request ids in order.
  std::vector<std::string> first;
  std::vector<std::string> second;
  std::thread client_a([&] {
    first = exchange(transport.port(),
                     {R"({"id":11,"kind":"sweep","codes":["BGC"],)"
                      R"("lengths":[8],"sigmas_vt":[0.04],"trials":80})",
                      R"({"id":12,"kind":"stats"})"});
  });
  std::thread client_b([&] {
    second = exchange(transport.port(),
                      {R"({"id":21,"kind":"sweep","codes":["TC"],)"
                       R"("lengths":[8],"sigmas_vt":[0.05],"trials":80})",
                       R"({"id":22,"kind":"stats"})"});
  });
  client_a.join();
  client_b.join();
  transport.shutdown();
  server.join();

  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(first[0].find("\"id\":11"), std::string::npos);
  EXPECT_NE(first[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first[1].find("\"id\":12"), std::string::npos);
  EXPECT_NE(second[0].find("\"id\":21"), std::string::npos);
  EXPECT_NE(second[0].find("\"ok\":true"), std::string::npos);
}

TEST(TcpTransportTest, AsyncJobsWorkAcrossTheSocket) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {2, 64});
  tcp_transport transport(0);
  std::thread server([&] { transport.serve(handler); });

  const std::vector<std::string> responses = exchange(
      transport.port(),
      {R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
       R"("trials":100,"async":true})",
       R"({"id":2,"kind":"status","job":1,"wait":true})"});
  transport.shutdown();
  server.join();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].find("\"async\":true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"job\":1"), std::string::npos);
  EXPECT_NE(responses[1].find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"result\":"), std::string::npos);
}

TEST(TcpTransportTest, AnswersAFinalLineWithoutTrailingNewline) {
  // The stdio transport (std::getline) serves a script whose last request
  // lacks the trailing newline; the socket transport must too.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  tcp_transport transport(0);
  std::thread server([&] { transport.serve(handler); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(transport.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string unterminated = R"({"id":7,"kind":"stats"})";
  ASSERT_EQ(::send(fd, unterminated.data(), unterminated.size(), 0),
            static_cast<ssize_t>(unterminated.size()));
  ::shutdown(fd, SHUT_WR);  // EOF without a newline

  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  transport.shutdown();
  server.join();

  EXPECT_NE(response.find("\"id\":7"), std::string::npos);
  EXPECT_NE(response.find("\"kind\":\"stats\""), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
}

TEST(TcpTransportTest, ShutdownUnblocksIdleConnections) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  tcp_transport transport(0);
  std::thread server([&] { transport.serve(handler); });

  // An idle connection holding the server open must not block shutdown.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(transport.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  transport.shutdown();
  server.join();  // joins only if the idle connection was unblocked
  ::close(fd);
}

}  // namespace
}  // namespace nwdec::api
