// The "subscribe" verb end to end: the dispatcher's streaming path (ack
// line then lifecycle event lines), the byte-identity contract between a
// terminal event's "result" payload and a status {"wait": true}
// response's, resume-from-seq, the one-line transports' refusal, and
// api::resilient_client::subscribe_wait over a real TCP socket
// (including reconnect-and-resume).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/tcp_transport.h"
#include "client/resilient_client.h"
#include "service/sweep_service.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

// A line_sink that records every pushed line.
struct capture_sink final : public line_sink {
  std::vector<std::string> lines;
  bool write(const std::string& line) override {
    lines.push_back(line);
    return true;
  }
};

std::uint64_t job_of(const std::string& response) {
  const json_value root = json_parse(response);
  const json_value* job = root.find("job");
  EXPECT_NE(job, nullptr) << response;
  return job == nullptr ? 0 : static_cast<std::uint64_t>(job->as_number());
}

const std::string kAsyncSweep =
    R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.05],"trials":60})";

TEST(SubscribeTest, StreamsLifecycleAndTerminalResultMatchesStatusBytes) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});

  const std::uint64_t job = job_of(dispatch.handle_line(kAsyncSweep));
  const std::string status = dispatch.handle_line(
      R"({"id":2,"kind":"status","job":)" + std::to_string(job) +
      R"(,"wait":true})");

  capture_sink sink;
  dispatch.handle_stream(R"({"id":3,"kind":"subscribe","job":)" +
                             std::to_string(job) + "}",
                         sink);
  // Ack first, then the full replay: queued, running, done.
  ASSERT_GE(sink.lines.size(), 4u);
  const json_value ack = json_parse(sink.lines[0]);
  EXPECT_TRUE(ack.at("ok").as_bool()) << sink.lines[0];
  EXPECT_EQ(ack.at("kind").as_string(), "subscribe");
  EXPECT_EQ(static_cast<std::uint64_t>(ack.at("job").as_number()), job);

  std::vector<std::string> types;
  std::uint64_t previous_seq = 0;
  for (std::size_t i = 1; i < sink.lines.size(); ++i) {
    const json_value event = json_parse(sink.lines[i]);
    EXPECT_EQ(static_cast<std::uint64_t>(event.at("job").as_number()), job);
    const std::uint64_t seq =
        static_cast<std::uint64_t>(event.at("seq").as_number());
    EXPECT_EQ(seq, previous_seq + 1) << "gap at " << sink.lines[i];
    previous_seq = seq;
    types.push_back(event.at("event").as_string());
  }
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], "queued");
  EXPECT_EQ(types[1], "running");
  EXPECT_EQ(types[2], "done");

  // The load-bearing contract: the terminal event's "result" payload is
  // byte-identical to the status {"wait": true} response's.
  const json_value terminal = json_parse(sink.lines.back());
  const json_value status_root = json_parse(status);
  const json_value* event_result = terminal.find("result");
  const json_value* status_result = status_root.find("result");
  ASSERT_NE(event_result, nullptr) << sink.lines.back();
  ASSERT_NE(status_result, nullptr) << status;
  EXPECT_EQ(json_render(*event_result, json_writer::style::compact),
            json_render(*status_result, json_writer::style::compact));
  // The provenance counters ride along too.
  EXPECT_NE(terminal.find("cached"), nullptr);
  EXPECT_NE(terminal.find("computed"), nullptr);
}

TEST(SubscribeTest, FromSeqReplaysOnlyTheTail) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  const std::uint64_t job = job_of(dispatch.handle_line(kAsyncSweep));
  dispatch.handle_line(R"({"id":2,"kind":"status","job":)" +
                       std::to_string(job) + R"(,"wait":true})");

  capture_sink sink;
  dispatch.handle_stream(R"({"id":3,"kind":"subscribe","job":)" +
                             std::to_string(job) + R"(,"from":2})",
                         sink);
  // Ack + the one event past seq 2 (the terminal).
  ASSERT_EQ(sink.lines.size(), 2u);
  const json_value event = json_parse(sink.lines[1]);
  EXPECT_EQ(static_cast<std::uint64_t>(event.at("seq").as_number()), 3u);
  EXPECT_EQ(event.at("event").as_string(), "done");
}

TEST(SubscribeTest, UnknownJobIsRefusedOnTheStream) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  capture_sink sink;
  dispatch.handle_stream(R"({"id":1,"kind":"subscribe","job":424242})",
                         sink);
  ASSERT_EQ(sink.lines.size(), 1u);
  const json_value refusal = json_parse(sink.lines[0]);
  EXPECT_FALSE(refusal.at("ok").as_bool()) << sink.lines[0];
  EXPECT_NE(sink.lines[0].find("unknown job id"), std::string::npos);
}

TEST(SubscribeTest, OneShotTransportsRefuseSubscribe) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  const std::string answer =
      dispatch.handle_line(R"({"id":1,"kind":"subscribe","job":1})");
  EXPECT_NE(answer.find("\"ok\":false"), std::string::npos) << answer;
  EXPECT_NE(answer.find("streaming transport"), std::string::npos) << answer;
}

TEST(SubscribeTest, FailedJobStreamsItsErrorAsTheTerminalEvent) {
  // Arm the scheduler's evaluation failpoint so the job fails in flight
  // (submission itself succeeds); disarm on every exit path.
  struct disarm_guard {
    ~disarm_guard() { failpoints::disarm_all(); }
  } guard;
  failpoints::arm("api.job.sweep.evaluate", failpoints::action::error);

  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  const std::uint64_t job = job_of(dispatch.handle_line(kAsyncSweep));
  const std::string status = dispatch.handle_line(
      R"({"id":2,"kind":"status","job":)" + std::to_string(job) +
      R"(,"wait":true})");
  EXPECT_NE(status.find("\"state\":\"failed\""), std::string::npos) << status;

  capture_sink sink;
  dispatch.handle_stream(R"({"id":3,"kind":"subscribe","job":)" +
                             std::to_string(job) + "}",
                         sink);
  ASSERT_GE(sink.lines.size(), 2u);
  const json_value terminal = json_parse(sink.lines.back());
  EXPECT_EQ(terminal.at("event").as_string(), "failed");
  const json_value* error = terminal.find("error");
  ASSERT_NE(error, nullptr) << sink.lines.back();
  EXPECT_NE(error->as_string().find("failpoint"), std::string::npos)
      << sink.lines.back();
}

TEST(SubscribeTest, ResilientClientSubscribeWaitStreamsOverTcp) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {2, 64});
  tcp_transport transport(0);
  std::thread server([&] { transport.serve(handler); });

  client_options options;
  options.port = transport.port();
  options.request_timeout_ms = 30000;
  resilient_client client(options);

  const client_result submitted = client.call(kAsyncSweep);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  const std::uint64_t job = job_of(submitted.response);

  std::vector<std::string> streamed;
  const subscribe_result full = client.subscribe_wait(
      job, 0, [&streamed](const std::string& line) {
        streamed.push_back(line);
      });
  EXPECT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.events, streamed.size());
  ASSERT_FALSE(streamed.empty());
  EXPECT_EQ(streamed.back(), full.terminal);
  const json_value terminal = json_parse(full.terminal);
  EXPECT_EQ(terminal.at("event").as_string(), "done");

  // Terminal result bytes match a status fetch over the same socket.
  const client_result status = client.call(
      R"({"id":9,"kind":"status","job":)" + std::to_string(job) +
      R"(,"wait":true})");
  ASSERT_TRUE(status.ok) << status.error;
  const json_value status_root = json_parse(status.response);
  const json_value* status_result = status_root.find("result");
  ASSERT_NE(status_result, nullptr) << status.response;
  EXPECT_EQ(json_render(terminal.at("result"), json_writer::style::compact),
            json_render(*status_result, json_writer::style::compact));

  // Resume: a fresh subscription from a mid-stream cursor replays only
  // the tail, ending at the same terminal line.
  const subscribe_result resumed = client.subscribe_wait(job, 1);
  EXPECT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.terminal, full.terminal);
  EXPECT_EQ(resumed.last_seq, full.last_seq);
  EXPECT_LT(resumed.events, full.events);

  transport.shutdown();
  server.join();
}

}  // namespace
}  // namespace nwdec::api
