// Store-aware admission: a sweep whose every point is already cached at
// sufficient provenance is answered inline at submit time -- no job id,
// no worker dispatch, no batch -- with bytes identical to the job path.
// These tests pin the counters (answered_inline up, submitted/batches
// flat), the interaction with the request_id dedup window, and the
// fall-through cases that must still become jobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/dispatch.h"
#include "service/sweep_service.h"
#include "util/json.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

const std::string kSweep =
    R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.04,0.05],"trials":60})";

TEST(AdmissionTest, WarmRepeatIsAnsweredInlineWithIdenticalBytes) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});

  const std::string cold = dispatch.handle_line(kSweep);
  EXPECT_EQ(dispatch.scheduler().stats().submitted, 1u);

  // The reference warm answer through the JOB path: async submissions
  // are never answered inline, so this repeat runs as job 2.
  const std::string reference_async = dispatch.handle_line(
      R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.04,0.05],"trials":60})");
  const json_value reference_root = json_parse(reference_async);
  const json_value* reference_job = reference_root.find("job");
  ASSERT_NE(reference_job, nullptr) << reference_async;
  dispatch.handle_line(
      R"({"id":2,"kind":"status","job":)" +
      std::to_string(static_cast<std::uint64_t>(reference_job->as_number())) +
      R"(,"wait":true})");
  const scheduler_stats after_reference = dispatch.scheduler().stats();
  EXPECT_EQ(after_reference.submitted, 2u);
  EXPECT_EQ(after_reference.answered_inline, 0u);

  const std::string warm = dispatch.handle_line(kSweep);

  // The warm repeat occupied no worker and created no job: only the
  // inline counter moved.
  const scheduler_stats after_warm = dispatch.scheduler().stats();
  EXPECT_EQ(after_warm.submitted, 2u);
  EXPECT_EQ(after_warm.answered_inline, 1u);
  EXPECT_EQ(after_warm.sweep_batches, after_reference.sweep_batches);
  EXPECT_EQ(after_warm.sweep_jobs_batched,
            after_reference.sweep_jobs_batched);

  // The inline answer reports pure cache provenance and carries the
  // exact result payload of the cold run.
  EXPECT_NE(warm.find("\"cached\":2"), std::string::npos) << warm;
  EXPECT_NE(warm.find("\"computed\":0"), std::string::npos) << warm;
  EXPECT_EQ(json_render(json_parse(warm).at("result"),
                        json_writer::style::compact),
            json_render(json_parse(cold).at("result"),
                        json_writer::style::compact));
}

TEST(AdmissionTest, PartiallyCachedSweepStillBecomesAJob) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);  // warms sigmas 0.04 and 0.05

  // One warm point, one cold: inline admission must not split the
  // request -- the whole sweep goes through the job path.
  dispatch.handle_line(
      R"({"id":2,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("sigmas_vt":[0.05,0.06],"trials":60})");
  const scheduler_stats stats = dispatch.scheduler().stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.answered_inline, 0u);
}

TEST(AdmissionTest, HigherTrialCountIsNotServedByAWeakerEntry) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);  // trials 60

  dispatch.handle_line(
      R"({"id":2,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("sigmas_vt":[0.04,0.05],"trials":200})");
  const scheduler_stats stats = dispatch.scheduler().stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.answered_inline, 0u);
}

TEST(AdmissionTest, AsyncSubmissionsAreNeverAnsweredInline) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);

  // async asks for a job id; admission must hand one over even when the
  // store could answer immediately.
  const std::string async = dispatch.handle_line(
      R"({"id":2,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.04,0.05],"trials":60})");
  EXPECT_NE(async.find("\"job\":"), std::string::npos) << async;
  const scheduler_stats stats = dispatch.scheduler().stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.answered_inline, 0u);
}

TEST(AdmissionTest, KeyedInlineAnswersDeduplicateAndConflictLikeJobs) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);  // warm, no key

  const std::string keyed =
      R"({"id":2,"kind":"sweep","request_id":"warm-1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.04,0.05],"trials":60})";
  const std::string first = dispatch.handle_line(keyed);
  EXPECT_EQ(dispatch.scheduler().stats().answered_inline, 1u);

  // The retry of an inline-answered keyed request is deduplicated (the
  // window remembered the key) and still answered from the store.
  const std::string retry = dispatch.handle_line(keyed);
  EXPECT_EQ(first, retry);
  const scheduler_stats stats = dispatch.scheduler().stats();
  EXPECT_EQ(stats.deduplicated, 1u);
  EXPECT_EQ(stats.answered_inline, 2u);
  EXPECT_EQ(stats.submitted, 1u);

  // Reusing the key for different work is the same conflict a job-backed
  // key raises.
  const std::string conflict = dispatch.handle_line(
      R"({"id":3,"kind":"sweep","request_id":"warm-1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.04,0.05],"trials":90})");
  EXPECT_NE(conflict.find("\"code\":\"request_id_conflict\""),
            std::string::npos)
      << conflict;
}

TEST(AdmissionTest, AsyncRetryOfAnInlineKeyUpgradesToARealJob) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);  // warm

  // Sync + keyed: answered inline, key recorded without a job.
  dispatch.handle_line(
      R"({"id":2,"kind":"sweep","request_id":"up-1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.04,0.05],"trials":60})");
  EXPECT_EQ(dispatch.scheduler().stats().answered_inline, 1u);

  // The same key arrives async (it wants a job id this time): the entry
  // upgrades in place to a real job...
  const std::string upgraded = dispatch.handle_line(
      R"({"id":3,"kind":"sweep","async":true,"request_id":"up-1",)"
      R"("codes":["BGC"],"lengths":[8],"sigmas_vt":[0.04,0.05],)"
      R"("trials":60})");
  const json_value root = json_parse(upgraded);
  const json_value* job = root.find("job");
  ASSERT_NE(job, nullptr) << upgraded;

  // ...and a further retry deduplicates onto that job.
  const std::string retry = dispatch.handle_line(
      R"({"id":4,"kind":"sweep","async":true,"request_id":"up-1",)"
      R"("codes":["BGC"],"lengths":[8],"sigmas_vt":[0.04,0.05],)"
      R"("trials":60})");
  EXPECT_NE(retry.find("\"deduplicated\":true"), std::string::npos) << retry;
  const json_value retry_root = json_parse(retry);
  const json_value* retry_job = retry_root.find("job");
  ASSERT_NE(retry_job, nullptr) << retry;
  EXPECT_EQ(retry_job->as_number(), job->as_number());
}

TEST(AdmissionTest, StatsDetailReportsAnsweredInline) {
  service::sweep_service service = make_service();
  dispatcher dispatch(service, {1, 64});
  dispatch.handle_line(kSweep);
  dispatch.handle_line(kSweep);
  const std::string stats =
      dispatch.handle_line(R"({"id":9,"kind":"stats","detail":true})");
  EXPECT_NE(stats.find("\"answered_inline\":1"), std::string::npos) << stats;
  // The metrics registry counter moved with it.
  const std::string metrics =
      dispatch.handle_line(R"({"id":10,"kind":"metrics"})");
  EXPECT_NE(metrics.find("nwdec_jobs_answered_inline_total"),
            std::string::npos)
      << metrics;
}

}  // namespace
}  // namespace nwdec::api
