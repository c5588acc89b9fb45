// Hostile-peer hardening of the TCP transport: malformed frames
// (oversized lines, embedded NULs, byte-dribbled requests, binary
// garbage) get exactly one machine-readable error line -- never a crash,
// never a hang; the tcp_limits bounds (read deadline, byte cap,
// connection cap) answer with their documented error codes; graceful
// drain finishes in-flight work before closing, and its window bounds
// the jobs still running when it closes.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "api/dispatch.h"
#include "api/tcp_transport.h"
#include "service/sweep_service.h"
#include "util/net.h"

namespace nwdec::api {
namespace {

dispatcher::options one_worker() {
  dispatcher::options options;
  options.workers = 1;
  return options;
}

/// A service + dispatcher + serving transport with the given limits.
struct test_server {
  service::sweep_service service;
  dispatcher dispatch;
  tcp_transport transport;
  std::thread thread;

  explicit test_server(tcp_limits limits)
      : service(crossbar::crossbar_spec{}, device::paper_technology(),
                service::service_options{}),
        dispatch(service, one_worker()),
        transport(0, 64, limits),
        thread([this] { transport.serve(dispatch); }) {}

  ~test_server() {
    transport.shutdown();
    thread.join();
  }
};

/// Blocking loopback client over util/net; every read is deadlined so a
/// server hang fails the test instead of wedging it.
struct test_client {
  int fd = -1;
  std::string buffer;  ///< bytes past the last returned line

  explicit test_client(std::uint16_t port) {
    fd = net::connect_tcp("127.0.0.1", port, 2000);
    EXPECT_GE(fd, 0);
  }
  ~test_client() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::string& bytes) {
    EXPECT_TRUE(net::send_all(fd, bytes));
  }

  /// One response line (newline stripped); "" on EOF or deadline.
  std::string recv_line(int timeout_ms = 5000) {
    char chunk[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t newline = buffer.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        return line;
      }
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return "";
      const long n = net::read_some(fd, chunk, sizeof(chunk),
                                    static_cast<int>(remaining));
      if (n <= 0) return "";
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True once the server closes (EOF within the deadline).
  bool closed(int timeout_ms = 5000) {
    char chunk[64];
    return net::read_some(fd, chunk, sizeof(chunk), timeout_ms) == 0;
  }
};

const char kStats[] = R"({"id":1,"kind":"stats"})";

TEST(HardeningTest, OversizedLineGetsPayloadTooLargeAndCloses) {
  tcp_limits limits;
  limits.max_request_bytes = 1024;
  test_server server(limits);
  test_client client(server.transport.port());
  client.send(std::string(4096, 'x'));  // no newline, 4x the cap
  const std::string line = client.recv_line();
  EXPECT_NE(line.find("\"code\":\"payload_too_large\""), std::string::npos)
      << line;
  EXPECT_TRUE(client.closed());
}

TEST(HardeningTest, EmbeddedNulsGetOneErrorLineAndTheConnectionSurvives) {
  test_server server(tcp_limits{});
  test_client client(server.transport.port());
  client.send(std::string("\0\0{\"id\":1}\0garbage", 17) + "\n");
  const std::string error_line = client.recv_line();
  EXPECT_NE(error_line.find("\"ok\":false"), std::string::npos) << error_line;
  // A malformed LINE is the peer's problem, not grounds for a close: the
  // next well-formed request on the same connection is answered.
  client.send(std::string(kStats) + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
}

TEST(HardeningTest, BinaryGarbageGetsOneErrorLinePerFrame) {
  test_server server(tcp_limits{});
  test_client client(server.transport.port());
  std::string garbage;
  for (int i = 0; i < 256; ++i)
    garbage += static_cast<char>((i * 37 + 11) % 256 ? (i * 37 + 11) % 256
                                                     : 1);
  client.send(garbage + "\n" + garbage + "\n");
  EXPECT_NE(client.recv_line().find("\"ok\":false"), std::string::npos);
  EXPECT_NE(client.recv_line().find("\"ok\":false"), std::string::npos);
}

TEST(HardeningTest, ByteDribbledRequestStillParses) {
  // Split reads: one byte per send. The transport must reassemble across
  // any fragmentation (the chaos proxy's max_write_bytes leans on this).
  tcp_limits limits;
  limits.read_deadline_ms = 10000;  // generous; the dribble is fast
  test_server server(limits);
  test_client client(server.transport.port());
  const std::string line = std::string(kStats) + "\n";
  for (const char c : line) client.send(std::string(1, c));
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
}

TEST(HardeningTest, SlowlorisPartialLineHitsTheReadDeadline) {
  tcp_limits limits;
  limits.read_deadline_ms = 200;
  test_server server(limits);
  test_client client(server.transport.port());
  client.send(R"({"id":1,"kind")");  // start a line, never finish it
  const std::string line = client.recv_line();
  EXPECT_NE(line.find("\"code\":\"read_timeout\""), std::string::npos)
      << line;
  EXPECT_TRUE(client.closed());
}

TEST(HardeningTest, CompletedLinesResetTheReadDeadline) {
  // The deadline bounds ONE line's assembly; a connection serving many
  // requests slowly but completely never trips it.
  tcp_limits limits;
  limits.read_deadline_ms = 300;
  test_server server(limits);
  test_client client(server.transport.port());
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    client.send(std::string(kStats) + "\n");
    EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  }
}

TEST(HardeningTest, ConnectionCapShedsWithTooManyConnections) {
  tcp_limits limits;
  limits.max_connections = 1;
  test_server server(limits);
  test_client first(server.transport.port());
  first.send(std::string(kStats) + "\n");
  EXPECT_NE(first.recv_line().find("\"ok\":true"), std::string::npos);
  // The first connection is parked open; the second is over the cap.
  test_client second(server.transport.port());
  const std::string line = second.recv_line();
  EXPECT_NE(line.find("\"code\":\"too_many_connections\""),
            std::string::npos)
      << line;
  EXPECT_TRUE(second.closed());
}

TEST(HardeningTest, DrainAnswersTheBufferedRequestBeforeClosing) {
  tcp_limits limits;
  limits.drain_ms = 2000;
  test_server server(limits);
  test_client client(server.transport.port());
  // An unterminated request is buffered server-side; shutdown's SHUT_RD
  // makes the connection thread see EOF, answer it, and exit -- inside
  // the drain window, so the response arrives before the close.
  client.send(kStats);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.transport.shutdown();
  EXPECT_NE(client.recv_line().find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(client.closed());
}

/// The job id in an async submission's answer line (0 when absent).
std::uint64_t job_of(const std::string& line) {
  const std::size_t at = line.find("\"job\":");
  return at == std::string::npos ? 0 : std::stoull(line.substr(at + 6));
}

TEST(HardeningTest, DrainWindowCancelsAJobNoConnectionWaitsOn) {
  // A long async sweep keeps running after its client hangs up. Shutdown
  // must not wait for it: the drain window closes, the job is cancelled
  // at its next Monte-Carlo batch (small N keeps a batch short even under
  // a sanitizer), and serve() plus the dispatcher's teardown finish well
  // inside 2 s.
  const auto started = std::chrono::steady_clock::now();
  std::uint64_t job = 0;
  std::string status;
  {
    service::sweep_service service(crossbar::crossbar_spec{},
                                   device::paper_technology(),
                                   service::service_options{});
    dispatcher dispatch(service, one_worker());
    tcp_limits limits;
    limits.drain_ms = 300;
    tcp_transport transport(0, 64, limits);
    std::thread server([&] { transport.serve(dispatch); });
    {
      test_client client(transport.port());
      client.send(
          R"({"id":1,"kind":"sweep","async":true,"codes":["TC"],)"
          R"("lengths":[8],"nanowires":[10],"trials":50000000})"
          "\n");
      job = job_of(client.recv_line());
    }
    ASSERT_NE(job, 0u);
    for (int spin = 0;
         spin < 2000 && dispatch.scheduler().stats().running == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    transport.shutdown();
    server.join();
    status = dispatch.handle_line(R"({"id":2,"kind":"status","job":)" +
                                  std::to_string(job) + R"(,"wait":true})");
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  EXPECT_LT(seconds, 2.0);
  EXPECT_NE(status.find("\"state\":\"cancelled\""), std::string::npos)
      << status;
}

TEST(HardeningTest, JobsFinishingInsideTheDrainWindowEndDone) {
  // Still running at shutdown, done long before the (generous) window
  // closes: the drain waits for it instead of cancelling it.
  service::sweep_service service(crossbar::crossbar_spec{},
                                 device::paper_technology(),
                                 service::service_options{});
  dispatcher dispatch(service, one_worker());
  tcp_limits limits;
  limits.drain_ms = 20000;
  tcp_transport transport(0, 64, limits);
  std::thread server([&] { transport.serve(dispatch); });
  std::uint64_t job = 0;
  {
    test_client client(transport.port());
    client.send(
        R"({"id":1,"kind":"sweep","async":true,"codes":["TC"],)"
        R"("lengths":[8],"trials":200000})"
        "\n");
    job = job_of(client.recv_line());
  }
  ASSERT_NE(job, 0u);
  for (int spin = 0;
       spin < 2000 && dispatch.scheduler().stats().running == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  transport.shutdown();
  server.join();
  const std::string status =
      dispatch.handle_line(R"({"id":2,"kind":"status","job":)" +
                           std::to_string(job) + "}");
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos)
      << status;
}

TEST(HardeningTest, CancelAllReleasesQueuedJobs) {
  service::sweep_service service(crossbar::crossbar_spec{},
                                 device::paper_technology(),
                                 service::service_options{});
  dispatcher dispatch(service, one_worker());
  // Async submissions queue behind each other on the single worker. Every
  // design is valid, so the first job really runs Monte Carlo (about a
  // dozen cancellation checks, one per point) when cancel_all meets it.
  for (int i = 1; i <= 4; ++i) {
    dispatch.handle_line(
        R"({"id":)" + std::to_string(i) +
        R"(,"kind":"sweep","async":true,"codes":["TC","GC"],)"
        R"("lengths":[8,10],"sigmas_vt":[0.03,0.05,0.07],"trials":4000})");
  }
  for (int spin = 0; spin < 2000 && dispatch.scheduler().stats().running == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t touched = dispatch.scheduler().cancel_all();
  EXPECT_EQ(touched, 4u);
  // Everything settles terminal: the running job stops at its next check.
  for (int i = 0; i < 50; ++i) {
    const scheduler_stats stats = dispatch.scheduler().stats();
    if (stats.queued == 0 && stats.running == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const scheduler_stats stats = dispatch.scheduler().stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.cancelled, 4u);
  EXPECT_EQ(stats.completed, 0u);
  const std::string first =
      dispatch.handle_line(R"({"id":5,"kind":"status","job":1})");
  EXPECT_NE(first.find("\"state\":\"cancelled\""), std::string::npos)
      << first;
}

}  // namespace
}  // namespace nwdec::api
