// The job scheduler: async lifecycle, cancellation, cross-request
// coalescing, failure capture, and the headline determinism contract --
// interleaved sweep+refine jobs return bit-identical result payloads at
// any worker count.
#include "api/job_scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/refine.h"
#include "service/sweep_service.h"
#include "util/error.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

sweep_request make_sweep(double sigma, std::size_t trials,
                         double min_half_width = 0.0) {
  sweep_request request;
  request.codes = {codes::code_type::balanced_gray};
  request.lengths = {8};
  request.sigmas_vt = {sigma};
  request.trials = trials;
  request.min_half_width = min_half_width;
  return request;
}

refine_request make_refine(std::size_t trials, double resolution = 0.005) {
  refine_request request;
  request.refinement.design = {codes::code_type::balanced_gray, 2, 8};
  request.refinement.mc_trials = trials;
  request.refinement.sigma_low = 0.02;
  request.refinement.sigma_high = 0.12;
  request.refinement.resolution = resolution;
  return request;
}

TEST(JobSchedulerTest, RunsAJobThroughItsLifecycle) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {2, 64});

  const std::uint64_t id = scheduler.submit(make_sweep(0.05, 120));
  const std::optional<job_result> done = scheduler.wait(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.state, job_state::done);
  EXPECT_EQ(done->status.kind, "sweep");
  EXPECT_EQ(done->status.progress_done, 1u);
  EXPECT_EQ(done->status.progress_total, 1u);
  EXPECT_EQ(done->sweep->points.size(), 1u);
  EXPECT_EQ(done->sweep->computed, 1u);

  // inspect() sees the same terminal snapshot afterwards.
  const std::optional<job_result> later = scheduler.inspect(id);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->status.state, job_state::done);
  EXPECT_EQ(service::to_json(*later->sweep), service::to_json(*done->sweep));

  const scheduler_stats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(JobSchedulerTest, OnlySweepAndRefineBecomeJobs) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  EXPECT_THROW(scheduler.submit(stats_request{}), invalid_argument_error);
  EXPECT_THROW(scheduler.submit(flush_request{}), invalid_argument_error);
  EXPECT_THROW(scheduler.submit(status_request{}), invalid_argument_error);
}

TEST(JobSchedulerTest, BatchedFailuresStayWithTheOffendingJob) {
  // One client's engine-level failure must not poison the jobs it was
  // coalesced with: the good job completes with its own payload, the bad
  // one fails with its own diagnostic.
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  const std::uint64_t busy = scheduler.submit(make_refine(20000));
  const std::uint64_t good = scheduler.submit(make_sweep(0.05, 40));
  sweep_request bad_request = make_sweep(0.05, 0);
  bad_request.lengths = {7};  // fails in the engine's prepare phase
  const std::uint64_t bad = scheduler.submit(bad_request);
  scheduler.wait(busy);

  const std::optional<job_result> good_done = scheduler.wait(good);
  ASSERT_TRUE(good_done.has_value());
  EXPECT_EQ(good_done->status.state, job_state::done)
      << good_done->status.error;
  EXPECT_EQ(good_done->sweep->points.size(), 1u);

  const std::optional<job_result> bad_done = scheduler.wait(bad);
  ASSERT_TRUE(bad_done.has_value());
  EXPECT_EQ(bad_done->status.state, job_state::failed);
  EXPECT_NE(bad_done->status.error.find("full length"), std::string::npos);
}

TEST(JobSchedulerTest, CapturesEngineFailuresAsFailedJobs) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});
  sweep_request bad = make_sweep(0.05, 0);
  bad.lengths = {7};  // no binary Gray family has odd length 7
  const std::uint64_t id = scheduler.submit(bad);
  const std::optional<job_result> done = scheduler.wait(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status.state, job_state::failed);
  EXPECT_FALSE(done->status.error.empty());
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(JobSchedulerTest, CollectReleasesOnlyResultsNoRetryCanFetch) {
  // collect() is the synchronous submitter's wait: the response carries
  // the result and the id is never sent, so a done job without a
  // request_id keeps only its status (the trace included); a keyed job
  // keeps its result for retries, and a failed one its error.
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});

  const std::uint64_t plain = scheduler.submit(make_sweep(0.05, 60));
  const std::optional<job_result> delivered = scheduler.collect(plain);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->status.state, job_state::done);
  ASSERT_NE(delivered->sweep, nullptr);
  EXPECT_EQ(delivered->sweep->points.size(), 1u);
  const std::optional<job_result> after = scheduler.inspect(plain);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status.state, job_state::done);
  EXPECT_TRUE(after->trace.ran);
  EXPECT_EQ(after->sweep, nullptr);
  EXPECT_EQ(scheduler.subscribe(plain, 0), nullptr);

  sweep_request keyed_request = make_sweep(0.06, 60);
  keyed_request.header.request_id = "retry-me";
  const std::uint64_t keyed = scheduler.submit(keyed_request);
  ASSERT_TRUE(scheduler.collect(keyed).has_value());
  const std::optional<job_result> kept = scheduler.inspect(keyed);
  ASSERT_TRUE(kept.has_value());
  EXPECT_NE(kept->sweep, nullptr);
  EXPECT_NE(scheduler.subscribe(keyed, 0), nullptr);
  bool deduplicated = false;
  EXPECT_EQ(scheduler.submit(keyed_request, &deduplicated), keyed);
  EXPECT_TRUE(deduplicated);

  sweep_request bad = make_sweep(0.05, 0);
  bad.lengths = {7};
  const std::uint64_t failed = scheduler.submit(bad);
  ASSERT_TRUE(scheduler.collect(failed).has_value());
  const std::optional<job_result> failure = scheduler.inspect(failed);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->status.state, job_state::failed);
  EXPECT_FALSE(failure->status.error.empty());
}

TEST(JobSchedulerTest, CancelReachesQueuedJobsOnly) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});

  EXPECT_EQ(scheduler.cancel(99), cancel_outcome::unknown);

  // Occupy the single worker with a Monte-Carlo refine, then queue work
  // behind it.
  const std::uint64_t busy = scheduler.submit(make_refine(20000));
  const std::uint64_t queued = scheduler.submit(make_sweep(0.05, 60));
  const bool still_pending = [&] {
    const std::optional<job_result> snapshot = scheduler.inspect(queued);
    return snapshot.has_value() &&
           snapshot->status.state == job_state::queued;
  }();
  const cancel_outcome cancelled = scheduler.cancel(queued);
  if (still_pending) {
    EXPECT_EQ(cancelled, cancel_outcome::cancelled);
    const std::optional<job_result> snapshot = scheduler.inspect(queued);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->status.state, job_state::cancelled);
    EXPECT_EQ(scheduler.stats().cancelled, 1u);
  }
  const std::optional<job_result> finished = scheduler.wait(busy);
  ASSERT_TRUE(finished.has_value());
  EXPECT_EQ(finished->status.state, job_state::done);
  EXPECT_TRUE(finished->refined->bracketed);

  // A finished job can no longer be cancelled.
  EXPECT_EQ(scheduler.cancel(busy), cancel_outcome::finished);
}

TEST(JobSchedulerTest, CoalescesQueuedSweepJobsIntoOneBatch) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 64});

  // Hold the single worker on a refine; every sweep submitted meanwhile
  // must drain in ONE batching pass (the cross-request coalescing stage).
  const std::uint64_t busy = scheduler.submit(make_refine(20000));
  std::vector<std::uint64_t> sweeps;
  for (int k = 0; k < 4; ++k) {
    sweeps.push_back(scheduler.submit(make_sweep(0.04 + 0.01 * k, 50)));
  }
  const bool worker_was_busy = [&] {
    const std::optional<job_result> snapshot = scheduler.inspect(busy);
    return snapshot.has_value() &&
           snapshot->status.state != job_state::done;
  }();
  for (const std::uint64_t id : sweeps) {
    const std::optional<job_result> done = scheduler.wait(id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status.state, job_state::done);
    EXPECT_EQ(done->sweep->points.size(), 1u);
  }
  scheduler.wait(busy);
  const scheduler_stats stats = scheduler.stats();
  EXPECT_EQ(stats.sweep_jobs_batched, sweeps.size());
  if (worker_was_busy) {
    EXPECT_EQ(stats.sweep_batches, 1u)
        << "queued sweep jobs must coalesce into one engine pass";
  }
}

TEST(JobSchedulerTest, RetainsOnlyTheConfiguredFinishedJobs) {
  service::sweep_service service = make_service();
  job_scheduler scheduler(service, {1, 2});
  std::vector<std::uint64_t> ids;
  for (int k = 0; k < 4; ++k) {
    ids.push_back(scheduler.submit(make_sweep(0.04 + 0.01 * k, 0)));
  }
  for (const std::uint64_t id : ids) scheduler.wait(id);
  // Only the two newest finished jobs survive retention.
  EXPECT_FALSE(scheduler.inspect(ids[0]).has_value());
  EXPECT_FALSE(scheduler.inspect(ids[1]).has_value());
  EXPECT_TRUE(scheduler.inspect(ids[3]).has_value());
}

// The acceptance headline: the same interleaved sweep+refine job set,
// submitted to schedulers with 1 and 4 workers over fresh services,
// returns bit-identical result payloads job for job -- regardless of how
// batching, top-ups, and store races interleave.
TEST(JobSchedulerTest, ResultPayloadsAreBitIdenticalAcrossWorkerCounts) {
  const auto run_with = [](std::size_t workers) {
    service::sweep_service service = make_service();
    job_scheduler scheduler(service, {workers, 4096});

    std::vector<std::pair<std::uint64_t, bool>> jobs;  // (id, is_sweep)
    jobs.emplace_back(scheduler.submit(make_sweep(0.05, 300)), true);
    sweep_request overlapping = make_sweep(0.05, 300);
    overlapping.codes.push_back(codes::code_type::tree);
    overlapping.sigmas_vt.push_back(0.04);
    jobs.emplace_back(scheduler.submit(overlapping), true);
    jobs.emplace_back(scheduler.submit(make_refine(300)), false);
    jobs.emplace_back(scheduler.submit(make_sweep(0.08, 100000, 0.03)),
                      true);
    jobs.emplace_back(scheduler.submit(make_sweep(0.04, 0)), true);
    jobs.emplace_back(scheduler.submit(make_refine(0, 0.01)), false);

    std::vector<std::string> payloads;
    for (const auto& [id, is_sweep] : jobs) {
      const std::optional<job_result> done = scheduler.wait(id);
      EXPECT_TRUE(done.has_value());
      EXPECT_EQ(done->status.state, job_state::done)
          << done->status.error;
      payloads.push_back(is_sweep ? service::to_json(*done->sweep)
                                  : service::to_json(*done->refined));
    }
    return payloads;
  };

  const std::vector<std::string> serial = run_with(1);
  const std::vector<std::string> concurrent = run_with(4);
  ASSERT_EQ(serial.size(), concurrent.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k], concurrent[k]) << "job " << k;
  }
}

}  // namespace
}  // namespace nwdec::api
