// The sweep service and its NDJSON protocol (api::dispatcher): memoized
// evaluation, the cold / warm / persisted byte-identity of result
// payloads, and the request grammar's error handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "api/dispatch.h"
#include "service/sweep_service.h"
#include "util/fs.h"
#include "util/json.h"

namespace nwdec::service {
namespace {

using api::dispatcher;

sweep_service make_service(service_options options = {}) {
  return sweep_service(crossbar::crossbar_spec{}, device::paper_technology(),
                       options);
}

core::sweep_request point(double sigma, std::size_t trials = 0) {
  core::sweep_request request;
  request.design = {codes::code_type::balanced_gray, 2, 8};
  request.sigma_vt = sigma;
  request.mc_trials = trials;
  return request;
}

// A store snapshot path plus the write-ahead log beside it.
class temp_file {
 public:
  explicit temp_file(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    remove();
  }
  ~temp_file() { remove(); }
  const std::string& path() const { return path_; }

 private:
  void remove() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".log").c_str());
  }
  std::string path_;
};

// Durability without fsync: these tests need crash safety against the
// process only.
recovery_report make_durable(sweep_service& service, const std::string& path) {
  durable_options options;
  options.fsync = false;
  return service.enable_durability(path, options);
}

// ---------------------------------------------------------- sweep_service

TEST(SweepServiceTest, ServesRepeatsFromTheStore) {
  sweep_service service = make_service();
  const std::vector<core::sweep_request> grid = {point(0.04, 80),
                                                 point(0.05, 80)};
  const sweep_response cold = service.evaluate(grid);
  EXPECT_EQ(cold.computed, 2u);
  EXPECT_EQ(cold.cached, 0u);

  const sweep_response warm = service.evaluate(grid);
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(warm.cached, 2u);
  EXPECT_EQ(warm.points[0].source, point_source::cached);
  EXPECT_EQ(to_json(warm), to_json(cold));  // byte-identical payloads
}

TEST(SweepServiceTest, MatchesTheEngineDirectly) {
  sweep_service service = make_service();
  const core::sweep_engine engine(crossbar::crossbar_spec{},
                                  device::paper_technology());
  core::sweep_engine_options engine_options;
  engine_options.seed = service.options().seed;
  engine_options.mode = service.options().mode;
  const core::sweep_engine_report direct =
      engine.run({point(0.05, 120)}, engine_options);
  const sweep_response served = service.evaluate({point(0.05, 120)});
  EXPECT_EQ(served.points[0].result->evaluation.mc_nanowire_yield,
            direct.entries[0].evaluation.mc_nanowire_yield);
  EXPECT_EQ(served.points[0].result->evaluation.nanowire_yield,
            direct.entries[0].evaluation.nanowire_yield);
}

TEST(SweepServiceTest, DuplicatePointsComputeOnce) {
  sweep_service service = make_service();
  const sweep_response response =
      service.evaluate({point(0.05, 60), point(0.05, 60), point(0.04)});
  EXPECT_EQ(response.computed, 3u);  // three slots answered...
  EXPECT_EQ(service.store().size(), 2u);  // ...from two computations
  EXPECT_EQ(response.points[0].result->evaluation.mc_nanowire_yield,
            response.points[1].result->evaluation.mc_nanowire_yield);
}

TEST(SweepServiceTest, MixedHitMissRequestsKeepRequestOrder) {
  sweep_service service = make_service();
  service.evaluate({point(0.05, 60)});
  const sweep_response response =
      service.evaluate({point(0.04, 60), point(0.05, 60), point(0.06, 60)});
  EXPECT_EQ(response.cached, 1u);
  EXPECT_EQ(response.computed, 2u);
  EXPECT_EQ(response.points[0].source, point_source::computed);
  EXPECT_EQ(response.points[1].source, point_source::cached);
  EXPECT_EQ(response.points[0].result->request.sigma_vt, 0.04);
  EXPECT_EQ(response.points[1].result->request.sigma_vt, 0.05);
  EXPECT_EQ(response.points[2].result->request.sigma_vt, 0.06);
}

TEST(SweepServiceTest, PersistedCacheReproducesPayloadsByteIdentically) {
  temp_file cache("nwdec_service_cache_test.json");
  const std::vector<core::sweep_request> grid = {point(0.04, 90),
                                                 point(0.065, 90)};
  std::string cold_payload;
  {
    sweep_service service = make_service();
    cold_payload = to_json(service.evaluate(grid));
    service.flush(cache.path(), false);  // a memory-only service exports
  }
  // The exported v2 document imports as a durable snapshot.
  sweep_service restarted = make_service();
  EXPECT_TRUE(make_durable(restarted, cache.path()).snapshot_loaded);
  const sweep_response warm = restarted.evaluate(grid);
  EXPECT_EQ(warm.cached, 2u);
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(to_json(warm), cold_payload);
}

TEST(SweepServiceTest, CacheRespectsServiceConfiguration) {
  temp_file cache("nwdec_service_config_test.json");
  {
    sweep_service service = make_service();
    service.evaluate({point(0.05, 50)});
    service.flush(cache.path(), false);
  }
  const std::string text = read_file(cache.path()).value();
  const auto load = [&text](sweep_service& service) {
    service.store().load_json(text, service.header());
  };
  service_options different;
  different.seed = 7;  // different seed -> different results -> reject
  sweep_service other = make_service(different);
  EXPECT_THROW(load(other), nwdec::error);

  service_options adaptive_opts;
  adaptive_opts.adaptive = adaptive_options{};
  sweep_service adaptive_service = make_service(adaptive_opts);
  EXPECT_THROW(load(adaptive_service), nwdec::error);

  // A different technology invalidates the cache too: its parameters feed
  // every cached figure.
  device::technology other_tech = device::paper_technology();
  other_tech.sigma_vt = 0.06;
  sweep_service other_platform(crossbar::crossbar_spec{}, other_tech, {});
  EXPECT_THROW(load(other_platform), nwdec::error);
}

// -------------------------------------------------------------- protocol

std::string result_of(const std::string& response_line) {
  const std::size_t at = response_line.find("\"result\":");
  EXPECT_NE(at, std::string::npos) << response_line;
  return response_line.substr(at);
}

TEST(ProtocolTest, SweepResponsesAreByteIdenticalColdWarmPersisted) {
  temp_file cache("nwdec_protocol_cache_test.json");
  const std::string request =
      R"({"id": 1, "kind": "sweep", "codes": ["BGC", "TC"], "lengths": [8],)"
      R"( "sigmas_vt": [0.04, 0.05], "trials": 60})";

  std::string cold;
  std::string warm;
  {
    sweep_service service = make_service();
    make_durable(service, cache.path());
    dispatcher handler(service);
    cold = handler.handle_line(request);
    warm = handler.handle_line(request);
    EXPECT_NE(cold.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(cold.find("\"computed\":4"), std::string::npos);
    EXPECT_NE(warm.find("\"cached\":4"), std::string::npos);
    EXPECT_EQ(result_of(cold), result_of(warm));
    handler.handle_line(R"({"id": 2, "kind": "flush"})");
  }
  sweep_service restarted = make_service();
  EXPECT_TRUE(make_durable(restarted, cache.path()).snapshot_loaded);
  dispatcher handler(restarted);
  const std::string persisted = handler.handle_line(request);
  EXPECT_NE(persisted.find("\"cached\":4"), std::string::npos);
  EXPECT_EQ(result_of(persisted), result_of(cold));
}

TEST(ProtocolTest, ResponsesAreSingleLines) {
  sweep_service service = make_service();
  dispatcher handler(service);
  const std::string response = handler.handle_line(
      R"({"id": 1, "kind": "sweep", "codes": ["BGC"], "lengths": [8]})");
  EXPECT_EQ(response.find('\n'), response.size() - 1);
  EXPECT_EQ(response.back(), '\n');
}

TEST(ProtocolTest, RefineRequestsRunThroughTheService) {
  sweep_service service = make_service();
  dispatcher handler(service);
  const std::string response = handler.handle_line(
      R"({"id": 5, "kind": "refine", "code": "BGC", "length": 8,)"
      R"( "sigma_low": 0.02, "sigma_high": 0.12, "resolution": 0.01})");
  EXPECT_NE(response.find("\"id\":5"), std::string::npos);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"bracketed\":true"), std::string::npos);
  EXPECT_NE(response.find("\"trace\":["), std::string::npos);

  // Repeating the refinement is fully cached and payload-identical.
  const std::string again = handler.handle_line(
      R"({"id": 6, "kind": "refine", "code": "BGC", "length": 8,)"
      R"( "sigma_low": 0.02, "sigma_high": 0.12, "resolution": 0.01})");
  EXPECT_EQ(result_of(again), result_of(response));
  EXPECT_NE(again.find("\"cached\":"), std::string::npos);
}

TEST(ProtocolTest, StatsReportStoreAndEngineCounters) {
  sweep_service service = make_service();
  dispatcher handler(service);
  handler.handle_line(
      R"({"kind": "sweep", "codes": ["BGC"], "lengths": [8]})");
  const std::string stats =
      handler.handle_line(R"({"id": 9, "kind": "stats"})");
  EXPECT_NE(stats.find("\"kind\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"store\":{\"entries\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"engine\":{\"designs_built\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"seed\":\"2009\""), std::string::npos);
}

TEST(ProtocolTest, FlushPersistsAndOptionallyClears) {
  temp_file cache("nwdec_protocol_flush_test.json");
  sweep_service service = make_service();
  make_durable(service, cache.path());
  dispatcher handler(service);
  handler.handle_line(
      R"({"kind": "sweep", "codes": ["BGC"], "lengths": [8]})");
  const std::string flushed = handler.handle_line(
      R"({"id": 3, "kind": "flush", "clear": true})");
  EXPECT_NE(flushed.find("\"persisted\":true"), std::string::npos);
  EXPECT_NE(flushed.find("\"entries\":1"), std::string::npos);
  EXPECT_NE(flushed.find("\"cleared\":true"), std::string::npos);
  EXPECT_EQ(service.store().size(), 0u);
  EXPECT_TRUE(std::filesystem::exists(cache.path()));

  // A memory-only service's flush answers but persists nothing.
  sweep_service memory_only = make_service();
  dispatcher no_file(memory_only);
  const std::string unpersisted =
      no_file.handle_line(R"({"kind": "flush"})");
  EXPECT_NE(unpersisted.find("\"persisted\":false"), std::string::npos);
}

TEST(ProtocolTest, MalformedAndInvalidRequestsBecomeErrorResponses) {
  sweep_service service = make_service();
  dispatcher handler(service);

  const std::string garbage = handler.handle_line("not json at all");
  EXPECT_NE(garbage.find("\"id\":null"), std::string::npos);
  EXPECT_NE(garbage.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(garbage.find("\"error\":"), std::string::npos);

  const std::string unknown_kind =
      handler.handle_line(R"({"id": 7, "kind": "destroy"})");
  EXPECT_NE(unknown_kind.find("\"id\":7"), std::string::npos);
  EXPECT_NE(unknown_kind.find("unknown request kind"), std::string::npos);

  const std::string missing_fields =
      handler.handle_line(R"({"id": 8, "kind": "sweep"})");
  EXPECT_NE(missing_fields.find("\"ok\":false"), std::string::npos);

  const std::string bad_code = handler.handle_line(
      R"({"id": 9, "kind": "sweep", "codes": ["XYZ"], "lengths": [8]})");
  EXPECT_NE(bad_code.find("\"ok\":false"), std::string::npos);

  const std::string bad_length = handler.handle_line(
      R"({"id": 10, "kind": "sweep", "codes": ["GC"], "lengths": [7]})");
  EXPECT_NE(bad_length.find("\"ok\":false"), std::string::npos);

  const std::string not_object = handler.handle_line(R"([1, 2, 3])");
  EXPECT_NE(not_object.find("\"ok\":false"), std::string::npos);

  // Negative defect rates are a client bug, not a defect-free sweep.
  const std::string negative_defects = handler.handle_line(
      R"({"id": 12, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "broken": -0.05})");
  EXPECT_NE(negative_defects.find("\"ok\":false"), std::string::npos);

  // The handler survives all of the above: a good request still works.
  const std::string good = handler.handle_line(
      R"({"id": 11, "kind": "sweep", "codes": ["BGC"], "lengths": [8]})");
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos);
}

// ----------------------------------------------------- async job surface

TEST(ProtocolTest, AsyncSubmissionReturnsTheJobIdImmediately) {
  sweep_service service = make_service();
  dispatcher handler(service);
  const std::string submitted = handler.handle_line(
      R"({"id": 1, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "trials": 80, "async": true})");
  EXPECT_NE(submitted.find("\"async\":true"), std::string::npos);
  EXPECT_NE(submitted.find("\"job\":1"), std::string::npos);
  EXPECT_NE(submitted.find("\"state\":\"queued\""), std::string::npos);
  EXPECT_EQ(submitted.find("\"result\""), std::string::npos);

  // status + wait fetches the completed result; its payload is identical
  // to what the synchronous path answers for the same request.
  const std::string status = handler.handle_line(
      R"({"id": 2, "kind": "status", "job": 1, "wait": true})");
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(status.find("\"request_kind\":\"sweep\""), std::string::npos);
  const std::string sync = handler.handle_line(
      R"({"id": 3, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "trials": 80})");
  EXPECT_EQ(result_of(status), result_of(sync));
}

TEST(ProtocolTest, StatusAndCancelErrorPathsAnswerWithoutKillingTheLoop) {
  sweep_service service = make_service();
  dispatcher handler(service);

  const std::string unknown_status =
      handler.handle_line(R"({"id": 1, "kind": "status", "job": 42})");
  EXPECT_NE(unknown_status.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(unknown_status.find("unknown job id 42"), std::string::npos);

  const std::string unknown_cancel =
      handler.handle_line(R"({"id": 2, "kind": "cancel", "job": 42})");
  EXPECT_NE(unknown_cancel.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(unknown_cancel.find("unknown job id 42"), std::string::npos);

  // Cancelling a finished job names its state instead of lying.
  handler.handle_line(
      R"({"kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "async": true})");
  handler.handle_line(R"({"kind": "status", "job": 1, "wait": true})");
  const std::string finished_cancel =
      handler.handle_line(R"({"id": 3, "kind": "cancel", "job": 1})");
  EXPECT_NE(finished_cancel.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(finished_cancel.find("job 1 is done"), std::string::npos);

  // A failed async job surfaces its diagnostic through status.
  handler.handle_line(
      R"({"kind": "sweep", "codes": ["GC"], "lengths": [7],)"
      R"( "async": true})");
  const std::string failed =
      handler.handle_line(R"({"id": 4, "kind": "status", "job": 2,)"
                          R"( "wait": true})");
  EXPECT_NE(failed.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_NE(failed.find("\"error\":"), std::string::npos);
}

TEST(ProtocolTest, DetailStatsExposeClassSizesEvictionsAndJobCounters) {
  sweep_service service = make_service();
  dispatcher handler(service);
  handler.handle_line(
      R"({"kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "trials": 50})");

  // The legacy shape stays exactly as committed (golden-pinned)...
  const std::string legacy =
      handler.handle_line(R"({"id": 1, "kind": "stats"})");
  EXPECT_EQ(legacy.find("cheap_entries"), std::string::npos);
  EXPECT_EQ(legacy.find("\"jobs\""), std::string::npos);

  // ...and detail adds the cost-class counters plus the scheduler's.
  const std::string detail =
      handler.handle_line(R"({"id": 2, "kind": "stats", "detail": true})");
  EXPECT_NE(detail.find("\"cheap_entries\":0"), std::string::npos);
  EXPECT_NE(detail.find("\"mc_entries\":1"), std::string::npos);
  EXPECT_NE(detail.find("\"cheap_evictions\":0"), std::string::npos);
  EXPECT_NE(detail.find("\"mc_evictions\":0"), std::string::npos);
  EXPECT_NE(detail.find("\"topped_up\":0"), std::string::npos);
  EXPECT_NE(detail.find("\"jobs\":{\"submitted\":1"), std::string::npos);
  EXPECT_NE(detail.find("\"sweep_batches\":1"), std::string::npos);
}

TEST(ProtocolTest, MinHalfWidthRequestsReportTopUpsInTheWrapper) {
  sweep_service service = make_service();
  dispatcher handler(service);
  const std::string loose = handler.handle_line(
      R"({"id": 1, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "sigmas_vt": [0.08], "trials": 100000, "min_half_width": 0.05})");
  EXPECT_NE(loose.find("\"topped_up\":0"), std::string::npos);
  const std::string tightened = handler.handle_line(
      R"({"id": 2, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
      R"( "sigmas_vt": [0.08], "trials": 100000, "min_half_width": 0.01})");
  EXPECT_NE(tightened.find("\"topped_up\":1"), std::string::npos);
  EXPECT_NE(tightened.find("\"computed\":0"), std::string::npos);
}

TEST(ProtocolTest, FlushClearWritesTheFileBeforeDroppingEntries) {
  temp_file cache("nwdec_protocol_flush_order_test.json");
  {
    sweep_service service = make_service();
    make_durable(service, cache.path());
    dispatcher handler(service);
    handler.handle_line(
        R"({"kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
        R"( "trials": 40})");
    handler.handle_line(R"({"id": 1, "kind": "flush", "clear": true})");
    EXPECT_EQ(service.stats().entries, 0u);
  }

  // The persisted snapshot must hold the entry that was just cleared.
  sweep_service restored = make_service();
  ASSERT_TRUE(make_durable(restored, cache.path()).snapshot_loaded);
  EXPECT_EQ(restored.stats().entries, 1u);
}

}  // namespace
}  // namespace nwdec::service
