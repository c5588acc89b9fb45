// api::resilient_client against a scripted fake server: the retry ladder
// must re-send idempotent requests after an eaten response, leave
// non-idempotent submissions alone (a lost response hides whether the
// work landed), mint request_ids when asked, and honor the error-code
// classification end to end.
#include "client/resilient_client.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/net.h"

namespace nwdec::api {
namespace {

/// Reads one newline-terminated line from fd ('' on EOF/error).
std::string read_line(int fd) {
  std::string buffer;
  char c = 0;
  for (;;) {
    const long n = net::read_some(fd, &c, 1, 5000);
    if (n <= 0) return "";
    if (c == '\n') return buffer;
    buffer += c;
  }
}

/// A loopback server that runs one scripted behavior per accepted
/// connection, in order, then stops accepting.
class fake_server {
 public:
  using behavior = std::function<void(int fd)>;

  explicit fake_server(std::vector<behavior> script)
      : listener_(0, 8, "fake_server"), script_(std::move(script)) {
    thread_ = std::thread([this] {
      for (const behavior& serve : script_) {
        const int client = listener_.accept();
        if (client < 0) return;
        serve(client);
        ::close(client);
      }
    });
  }

  ~fake_server() {
    listener_.wake();
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

  /// Read one request line, close without answering (the eaten-response
  /// failure every retry design exists for).
  static behavior eat() {
    return [](int fd) { read_line(fd); };
  }

  /// Read one request line, answer with the canned line.
  static behavior respond(std::string line) {
    return [line = std::move(line)](int fd) {
      read_line(fd);
      net::send_all(fd, line + "\n");
    };
  }

  /// Read one request line, send it back verbatim.
  static behavior echo() {
    return [](int fd) { net::send_all(fd, read_line(fd) + "\n"); };
  }

 private:
  net::listener listener_;
  std::vector<behavior> script_;
  std::thread thread_;
};

client_options fast_options(std::uint16_t port) {
  client_options options;
  options.port = port;
  options.max_attempts = 4;
  options.request_timeout_ms = 5000;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  options.seed = 7;
  return options;
}

const char kSweep[] =
    R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.05],"trials":60})";

TEST(ResilientClientTest, ClassifiesTheDocumentedCodeVocabulary) {
  EXPECT_EQ(classify_code("overloaded"), retry_class::backoff);
  EXPECT_EQ(classify_code("idle_timeout"), retry_class::reconnect);
  EXPECT_EQ(classify_code("read_timeout"), retry_class::reconnect);
  EXPECT_EQ(classify_code("too_many_connections"), retry_class::reconnect);
  EXPECT_EQ(classify_code("draining"), retry_class::reconnect);
  EXPECT_EQ(classify_code("timed_out"), retry_class::none);
  EXPECT_EQ(classify_code("payload_too_large"), retry_class::none);
  EXPECT_EQ(classify_code("request_id_conflict"), retry_class::none);
  EXPECT_EQ(classify_code(""), retry_class::none);
}

TEST(ResilientClientTest, ClassifiesIdempotentRequestLines) {
  EXPECT_TRUE(resilient_client::idempotent(R"({"id":1,"kind":"stats"})"));
  EXPECT_TRUE(resilient_client::idempotent(
      R"({"id":1,"kind":"status","job":3})"));
  EXPECT_TRUE(resilient_client::idempotent(
      R"({"id":1,"kind":"cancel","job":3})"));
  EXPECT_TRUE(resilient_client::idempotent(R"({"kind":"flush"})"));
  EXPECT_TRUE(resilient_client::idempotent(R"({"kind":"metrics"})"));
  EXPECT_FALSE(resilient_client::idempotent(kSweep));
  EXPECT_TRUE(resilient_client::idempotent(
      R"({"id":1,"kind":"sweep","request_id":"k1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})"));
  EXPECT_FALSE(resilient_client::idempotent("not json at all"));
}

TEST(ResilientClientTest, RetriesIdempotentRequestAfterEatenResponse) {
  fake_server server({fake_server::eat(),
                      fake_server::respond(R"({"id":1,"ok":true})")});
  resilient_client client(fast_options(server.port()));
  const client_result result = client.call(R"({"id":1,"kind":"stats"})");
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.response, R"({"id":1,"ok":true})");
}

TEST(ResilientClientTest, NeverBlindlyResendsAnUnkeyedSubmission) {
  fake_server server({fake_server::eat(),
                      fake_server::respond(R"({"id":1,"ok":true})")});
  resilient_client client(fast_options(server.port()));
  const client_result result = client.call(kSweep);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 1);  // ambiguous failure, no key: give up
  EXPECT_NE(result.error.find("closed"), std::string::npos) << result.error;
}

TEST(ResilientClientTest, AutoRequestIdMakesSubmissionsRetryable) {
  fake_server server({fake_server::eat(), fake_server::echo()});
  client_options options = fast_options(server.port());
  options.auto_request_id = true;
  options.request_id_prefix = "t";
  resilient_client client(options);
  const client_result result = client.call(kSweep);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.attempts, 2);
  // The echoed request carries the minted key -- and both attempts sent
  // the SAME key (the dedup window needs byte-equal retries).
  EXPECT_FALSE(client.last_minted_id().empty());
  EXPECT_NE(result.response.find("\"request_id\":\"" +
                                 client.last_minted_id() + "\""),
            std::string::npos)
      << result.response;
}

TEST(ResilientClientTest, MintedIdsAreDeterministicPerSeed) {
  fake_server server({fake_server::echo(), fake_server::echo()});
  client_options options = fast_options(server.port());
  options.auto_request_id = true;
  resilient_client first(options);
  first.call(kSweep);
  const std::string minted_first = first.last_minted_id();
  resilient_client second(options);
  second.call(kSweep);
  EXPECT_EQ(minted_first, second.last_minted_id());
}

TEST(ResilientClientTest, OverloadedIsRetriedAfterBackoff) {
  // One connection, two exchanges: the shed answer, then success --
  // "overloaded" never tears the connection down.
  fake_server server({[](int fd) {
    read_line(fd);
    net::send_all(fd, std::string(R"({"id":1,"ok":false,"error":"shed",)"
                                  R"("code":"overloaded"})") +
                          "\n");
    read_line(fd);
    net::send_all(fd, std::string(R"({"id":1,"ok":true})") + "\n");
  }});
  resilient_client client(fast_options(server.port()));
  const client_result result = client.call(kSweep);  // no key needed: shed
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.response, R"({"id":1,"ok":true})");
}

TEST(ResilientClientTest, ReconnectClassRetriesOnAFreshConnection) {
  fake_server server(
      {fake_server::respond(R"({"id":null,"ok":false,"error":"cap",)"
                            R"("code":"too_many_connections"})"),
       fake_server::respond(R"({"id":1,"ok":true})")});
  resilient_client client(fast_options(server.port()));
  const client_result result = client.call(kSweep);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.attempts, 2);
}

TEST(ResilientClientTest, NonRetryableCodesAreReturnedAsTheAnswer) {
  fake_server server(
      {fake_server::respond(R"({"id":1,"ok":false,"error":"conflict",)"
                            R"("code":"request_id_conflict"})")});
  resilient_client client(fast_options(server.port()));
  const client_result result = client.call(R"({"id":1,"kind":"stats"})");
  EXPECT_TRUE(result.ok);  // a response arrived; it IS the answer
  EXPECT_EQ(result.attempts, 1);
  EXPECT_NE(result.response.find("request_id_conflict"), std::string::npos);
}

TEST(ResilientClientTest, RequestDeadlineExpiresAsATransportFailure) {
  fake_server server({[](int fd) {
    read_line(fd);  // read the request, answer nothing for a while
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }});
  client_options options = fast_options(server.port());
  options.request_timeout_ms = 100;
  options.max_attempts = 1;
  resilient_client client(options);
  const client_result result = client.call(R"({"id":1,"kind":"stats"})");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no response within"), std::string::npos)
      << result.error;
}

TEST(ResilientClientTest, ConnectFailureReportsAfterExhaustingAttempts) {
  client_options options = fast_options(1);  // port 1: nothing listens
  options.max_attempts = 2;
  options.connect_timeout_ms = 200;
  resilient_client client(options);
  const client_result result = client.call(R"({"id":1,"kind":"stats"})");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_NE(result.error.find("cannot connect"), std::string::npos);
}

}  // namespace
}  // namespace nwdec::api
