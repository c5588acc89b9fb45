// Graceful-degradation hardening of the API layer: job deadlines
// (queued and running), cooperative cancellation of running work, the
// bounded queue's explicit load shedding, the dispatcher's failpoint, and
// the transport's idle timeout -- overload and abandonment turn into
// typed errors, never into hangs or unbounded growth.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/job_scheduler.h"
#include "api/tcp_transport.h"
#include "service/sweep_service.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

sweep_request make_sweep(double sigma, std::size_t trials,
                         std::size_t timeout_ms = 0) {
  sweep_request request;
  request.codes = {codes::code_type::balanced_gray};
  request.lengths = {8};
  request.sigmas_vt = {sigma};
  request.trials = trials;
  request.header.timeout_ms = timeout_ms;
  return request;
}

refine_request make_refine(std::size_t trials) {
  refine_request request;
  request.refinement.design = {codes::code_type::balanced_gray, 2, 8};
  request.refinement.mc_trials = trials;
  request.refinement.sigma_low = 0.02;
  request.refinement.sigma_high = 0.12;
  request.refinement.resolution = 0.005;
  return request;
}

// Spins until the job leaves the queue (running or terminal); the
// scheduler has no hook to observe the pop, so tests that need a running
// job poll its snapshot.
void wait_until_started(job_scheduler& scheduler, std::uint64_t id) {
  for (int spin = 0; spin < 2000; ++spin) {
    const std::optional<job_result> snapshot = scheduler.inspect(id);
    ASSERT_TRUE(snapshot.has_value());
    if (snapshot->status.state != job_state::queued) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "job " << id << " never started";
}

TEST(RobustnessTest, QueuedJobPastItsDeadlineTimesOutWithoutRunning) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  // Occupy the single worker, then queue a job whose deadline expires
  // long before the worker frees up.
  const std::uint64_t busy = scheduler.submit(make_refine(20000));
  const std::uint64_t doomed =
      scheduler.submit(make_sweep(0.05, 100000, 50));

  const std::optional<job_result> expired = scheduler.wait(doomed);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->status.state, job_state::timed_out);
  EXPECT_EQ(scheduler.stats().timed_out, 1u);

  // The busy job is untouched by its neighbor's deadline.
  const std::optional<job_result> finished = scheduler.wait(busy);
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(finished->status.state, job_state::done);
}

TEST(RobustnessTest, RunningJobObservesItsDeadlineBetweenBatches) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  // A Monte-Carlo budget far beyond what 60 ms allows: the evaluation
  // must abort itself at a between-batch check, not run to completion.
  const std::uint64_t id =
      scheduler.submit(make_sweep(0.05, 50'000'000, 60));
  const std::optional<job_result> done = scheduler.wait(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.state, job_state::timed_out);
  EXPECT_NE(done->status.error.find("deadline"), std::string::npos);
  EXPECT_EQ(scheduler.stats().timed_out, 1u);
  EXPECT_EQ(scheduler.stats().completed, 0u);
}

TEST(RobustnessTest, CancellingARunningSweepStopsItCooperatively) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  const std::uint64_t id = scheduler.submit(make_sweep(0.05, 50'000'000));
  wait_until_started(scheduler, id);

  const cancel_outcome outcome = scheduler.cancel(id);
  // Most spins catch it running -> cancelling; a very fast machine could
  // conceivably have finished it, which cancel reports honestly.
  if (outcome == cancel_outcome::finished) {
    GTEST_SKIP() << "job finished before cancel landed";
  }
  EXPECT_EQ(outcome, cancel_outcome::cancelling);
  const std::optional<job_result> snapshot = scheduler.inspect(id);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_TRUE(snapshot->status.state == job_state::cancelling ||
              snapshot->status.state == job_state::cancelled);

  const std::optional<job_result> done = scheduler.wait(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.state, job_state::cancelled);
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
  // Cancelling a terminal job reports finished.
  EXPECT_EQ(scheduler.cancel(id), cancel_outcome::finished);
}

TEST(RobustnessTest, CancellingARunningRefineIsCooperativeToo) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  const std::uint64_t id = scheduler.submit(make_refine(5'000'000));
  wait_until_started(scheduler, id);
  const cancel_outcome outcome = scheduler.cancel(id);
  if (outcome == cancel_outcome::finished) {
    GTEST_SKIP() << "refine finished before cancel landed";
  }
  EXPECT_EQ(outcome, cancel_outcome::cancelling);
  const std::optional<job_result> done = scheduler.wait(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.state, job_state::cancelled);
}

TEST(RobustnessTest, BoundedQueueShedsSubmissionsPastTheLimit) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64, 2});
  const std::uint64_t busy = scheduler.submit(make_refine(20000));
  wait_until_started(scheduler, busy);

  // Two fit in the queue; the third is shed before a job id is burned.
  scheduler.submit(make_sweep(0.04, 40));
  scheduler.submit(make_sweep(0.05, 40));
  EXPECT_THROW(scheduler.submit(make_sweep(0.06, 40)), overloaded_error);
  EXPECT_EQ(scheduler.stats().shed, 1u);
  EXPECT_EQ(scheduler.stats().submitted, 3u);  // the shed one never counted

  scheduler.wait(busy);
}

TEST(RobustnessTest, DispatcherRendersOverloadAsTypedErrorResponse) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64, 1});
  const std::string busy =
      handler.handle_line(R"({"id":1,"kind":"refine","code":"BGC",)"
                          R"("length":8,"sigma_low":0.02,"sigma_high":0.12,)"
                          R"("trials":20000,"async":true})");
  EXPECT_NE(busy.find("\"ok\":true"), std::string::npos);
  // Wait for the worker to pick job 1 up so the queue is empty, then fill
  // the single slot and overflow it.
  for (int spin = 0; spin < 2000 && handler.scheduler().stats().queued > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string queued = handler.handle_line(
      R"({"id":2,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("trials":40,"async":true})");
  EXPECT_NE(queued.find("\"ok\":true"), std::string::npos);
  const std::string shed = handler.handle_line(
      R"({"id":3,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("trials":40,"async":true})");
  EXPECT_NE(shed.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(shed.find("\"code\":\"overloaded\""), std::string::npos);
  // The legacy error shape is a byte-prefix of the coded one.
  EXPECT_LT(shed.find("\"error\":"), shed.find("\"code\":"));
  // Detailed stats report the shed submission.
  const std::string stats =
      handler.handle_line(R"({"id":4,"kind":"stats","detail":true})");
  EXPECT_NE(stats.find("\"shed\":1"), std::string::npos);
}

TEST(RobustnessTest, DispatcherRendersDeadlineExpiryWithTimedOutCode) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  const std::string busy =
      handler.handle_line(R"({"id":1,"kind":"refine","code":"BGC",)"
                          R"("length":8,"sigma_low":0.02,"sigma_high":0.12,)"
                          R"("trials":20000,"async":true})");
  EXPECT_NE(busy.find("\"ok\":true"), std::string::npos);
  // Synchronous sweep behind the busy worker with a 50 ms deadline.
  const std::string expired = handler.handle_line(
      R"({"id":2,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("trials":100000,"timeout_ms":50})");
  EXPECT_NE(expired.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(expired.find("\"code\":\"timed_out\""), std::string::npos);
  // A status fetch of the expired job reports the state by name.
  const std::string status =
      handler.handle_line(R"({"id":3,"kind":"status","job":2})");
  EXPECT_NE(status.find("\"state\":\"timed_out\""), std::string::npos);
}

TEST(RobustnessTest, DispatcherCancelOfRunningJobReportsCancelling) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  const std::string submitted = handler.handle_line(
      R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("trials":50000000,"async":true})");
  EXPECT_NE(submitted.find("\"job\":1"), std::string::npos);
  for (int spin = 0; spin < 2000 && handler.scheduler().stats().queued > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string cancel =
      handler.handle_line(R"({"id":2,"kind":"cancel","job":1})");
  EXPECT_NE(cancel.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(cancel.find("\"state\":\"cancelling\""), std::string::npos);
  const std::string final_state =
      handler.handle_line(R"({"id":3,"kind":"status","job":1,"wait":true})");
  EXPECT_NE(final_state.find("\"state\":\"cancelled\""), std::string::npos);
}

TEST(RobustnessTest, StatusOfACollectedSyncJobKeepsItsTraceNotItsResult) {
  // A synchronous sweep's response carried its result; status of its job
  // still reports the state and the trace, and says where the result went.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  const std::string answered = handler.handle_line(
      R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],"trials":40})");
  EXPECT_NE(answered.find("\"result\""), std::string::npos) << answered;
  const std::string status =
      handler.handle_line(R"({"id":2,"kind":"status","job":1})");
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"trace\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"result_delivered\":true"), std::string::npos)
      << status;
  EXPECT_EQ(status.find("\"result\":"), std::string::npos) << status;
}

TEST(RobustnessTest, DispatcherVerdictMatchesItsRenderedResponse) {
  // answer() hands transports the verdict instead of making them parse
  // the response back; it must say exactly what the line says.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  const std::vector<std::string> lines = {
      R"({"id":1,"kind":"stats"})",
      R"({"id":2,"kind":"sweep","codes":["BGC"],"lengths":[8],"trials":40})",
      R"({"id":3,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"trials":40,"request_id":"k"})",
      R"({"id":4,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"trials":41,"request_id":"k"})",
      R"({"id":5,"kind":"status","job":1,"wait":true})",
      R"({"id":6,"kind":"status","job":424242})",
      R"({"id":7,"kind":"cancel","job":1})",
      R"({"id":8,"kind":"subscribe","job":1})",
      R"({"id":9,"kind":"nope"})",
      "not json",
  };
  for (const std::string& line : lines) {
    const reply answered = handler.answer(line);
    const json_value root = json_parse(answered.line);
    EXPECT_EQ(answered.ok, root.at("ok").as_bool()) << answered.line;
    const json_value* code = root.find("code");
    EXPECT_EQ(answered.code, code != nullptr ? code->as_string() : "")
        << answered.line;
  }
}

TEST(RobustnessTest, DispatchFailpointTurnsIntoAnErrorResponse) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  failpoints::arm("api.dispatch.handle_line", failpoints::action::error);
  const std::string faulted =
      handler.handle_line(R"({"id":9,"kind":"stats"})");
  failpoints::disarm_all();
  EXPECT_NE(faulted.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(faulted.find("api.dispatch.handle_line"), std::string::npos);
  // Disarmed, the same request serves normally: the marker is free.
  const std::string healthy =
      handler.handle_line(R"({"id":9,"kind":"stats"})");
  EXPECT_NE(healthy.find("\"ok\":true"), std::string::npos);
}

TEST(RobustnessTest, IdleConnectionsAreClosedWithATypedErrorLine) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  tcp_transport transport(0, 64, 150);  // 150 ms idle budget
  std::thread server([&] { transport.serve(handler); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(transport.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);

  // Say nothing: the server must evict us (EOF after one error line)
  // instead of pinning the connection thread forever.
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  transport.shutdown();
  server.join();

  EXPECT_NE(received.find("\"code\":\"idle_timeout\""), std::string::npos);
  EXPECT_NE(received.find("\"ok\":false"), std::string::npos);
}

TEST(RobustnessTest, ActiveConnectionsOutliveTheIdleBudget) {
  // The timeout measures silence, not connection age: a client issuing
  // requests slower than the budget but faster than silence stays.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, 64});
  tcp_transport transport(0, 64, 300);
  std::thread server([&] { transport.serve(handler); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(transport.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  std::string received;
  char chunk[4096];
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::string line = R"({"id":1,"kind":"stats"})"
                             "\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      ASSERT_GT(n, 0);
      received.append(chunk, static_cast<std::size_t>(n));
      if (received.find('\n') != std::string::npos) break;
    }
    EXPECT_NE(received.find("\"ok\":true"), std::string::npos);
    received.clear();
  }
  ::close(fd);
  transport.shutdown();
  server.join();
}

}  // namespace
}  // namespace nwdec::api
