// Cross-restart Monte-Carlo top-up: a cached point whose Wilson
// half-width misses a request's min_half_width resumes from the persisted
// (mean, trials, M2) instead of recomputing -- and every serve / top-up /
// recompute path stays bit-identical to a cold evaluation of the same
// query (the purity contract the concurrent scheduler rests on).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "service/sweep_service.h"
#include "util/fs.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace nwdec::service {
namespace {

sweep_service make_service() {
  return sweep_service(crossbar::crossbar_spec{}, device::paper_technology(),
                       {});
}

// The Figs. 7/8 cliff region: the estimate converges slowly, so CI
// targets produce distinct rung totals.
core::sweep_request cliff_point(std::size_t cap = 100000) {
  core::sweep_request request;
  request.design = {codes::code_type::balanced_gray, 2, 8};
  request.sigma_vt = 0.08;
  request.mc_trials = cap;
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

// Recovers the durable store at `path` (no fsync: the tests need crash
// safety against the process only).
recovery_report make_durable(sweep_service& service, const std::string& path) {
  durable_options options;
  options.fsync = false;
  return service.enable_durability(path, options);
}

TEST(TopUpTest, TightenedTargetResumesAndMatchesColdBitwise) {
  sweep_service warm = make_service();
  const sweep_response loose = warm.evaluate({cliff_point()}, 0.05);
  EXPECT_EQ(loose.computed, 1u);
  const std::size_t loose_trials = loose.points[0].result->mc_trials_used;

  const sweep_response tightened = warm.evaluate({cliff_point()}, 0.01);
  EXPECT_EQ(tightened.topped_up, 1u);
  EXPECT_EQ(tightened.computed, 0u);
  EXPECT_EQ(tightened.points[0].source, point_source::topped_up);
  EXPECT_GT(tightened.points[0].result->mc_trials_used, loose_trials);

  sweep_service cold = make_service();
  const sweep_response direct = cold.evaluate({cliff_point()}, 0.01);
  EXPECT_EQ(to_json(tightened), to_json(direct));  // bit-identical payloads

  // The served result honors the target.
  const stored_result& result = *tightened.points[0].result;
  const double trials = static_cast<double>(result.mc_trials_used);
  EXPECT_LE(wilson_half_width(result.evaluation.mc_nanowire_yield * trials,
                              trials),
            0.01);
}

TEST(TopUpTest, PartialEntryResumesToTheCapForFixedRequests) {
  sweep_service warm = make_service();
  const sweep_response partial = warm.evaluate({cliff_point(4000)}, 0.05);
  ASSERT_LT(partial.points[0].result->mc_trials_used, 4000u);

  // A fixed-budget request for the same (point, cap) must answer with the
  // state at exactly the cap -- resumed from the partial entry, bitwise
  // equal to a cold fixed run.
  const sweep_response topped = warm.evaluate({cliff_point(4000)});
  EXPECT_EQ(topped.topped_up, 1u);
  EXPECT_EQ(topped.points[0].result->mc_trials_used, 4000u);

  sweep_service cold = make_service();
  const sweep_response fixed = cold.evaluate({cliff_point(4000)});
  EXPECT_EQ(to_json(topped), to_json(fixed));
}

TEST(TopUpTest, LooserTargetsRecomputeToStayPure) {
  // A tighter entry cannot answer a looser request: a cold rung walk with
  // the looser target may stop earlier, and the payload must be a pure
  // function of (config, query) -- so the service recomputes.
  sweep_service warm = make_service();
  const sweep_response tight = warm.evaluate({cliff_point()}, 0.01);
  const sweep_response loose = warm.evaluate({cliff_point()}, 0.05);
  EXPECT_EQ(loose.computed, 1u);
  EXPECT_EQ(loose.topped_up, 0u);

  sweep_service cold = make_service();
  EXPECT_EQ(to_json(loose), to_json(cold.evaluate({cliff_point()}, 0.05)));

  // The looser recompute must NOT evict the tighter (dominating) entry:
  // a repeated tight request is still a free store hit, so alternating
  // targets never re-pay the expensive rung walk.
  const sweep_response tight_again = warm.evaluate({cliff_point()}, 0.01);
  EXPECT_EQ(tight_again.cached, 1u);
  EXPECT_EQ(tight_again.computed, 0u);
  EXPECT_EQ(to_json(tight_again), to_json(tight));
}

TEST(TopUpTest, RepeatedTargetIsServedFromTheStore) {
  sweep_service service = make_service();
  const sweep_response first = service.evaluate({cliff_point()}, 0.02);
  const sweep_response repeat = service.evaluate({cliff_point()}, 0.02);
  EXPECT_EQ(repeat.cached, 1u);
  EXPECT_EQ(repeat.computed, 0u);
  EXPECT_EQ(to_json(repeat), to_json(first));
}

TEST(TopUpTest, FixedCapEntriesAreRecomputedForTargetRequests) {
  // A fixed-cap entry has no rung provenance: serving it for a CI-target
  // request could return more trials than a cold walk would. Purity wins:
  // the query is recomputed and matches the cold payload bitwise.
  sweep_service warm = make_service();
  warm.evaluate({cliff_point(4000)});
  const sweep_response targeted = warm.evaluate({cliff_point(4000)}, 0.03);
  EXPECT_EQ(targeted.computed, 1u);
  EXPECT_EQ(targeted.topped_up, 0u);

  sweep_service cold = make_service();
  EXPECT_EQ(to_json(targeted), to_json(cold.evaluate({cliff_point(4000)}, 0.03)));
}

TEST(TopUpTest, TopsUpAcrossProcessRestarts) {
  temp_file cache("nwdec_topup_restart_test.json");
  std::size_t loose_trials = 0;
  {
    sweep_service first = make_service();
    make_durable(first, cache.path());
    const sweep_response loose = first.evaluate({cliff_point()}, 0.05);
    loose_trials = loose.points[0].result->mc_trials_used;
  }
  sweep_service second = make_service();
  ASSERT_EQ(make_durable(second, cache.path()).log_records, 1u);
  const sweep_response tightened = second.evaluate({cliff_point()}, 0.01);
  EXPECT_EQ(tightened.topped_up, 1u);
  EXPECT_GT(tightened.points[0].result->mc_trials_used, loose_trials);

  sweep_service cold = make_service();
  EXPECT_EQ(to_json(tightened), to_json(cold.evaluate({cliff_point()}, 0.01)));
}

TEST(TopUpTest, PersistedEntriesCarryTheResumableState) {
  temp_file cache("nwdec_topup_state_test.json");
  sweep_service service = make_service();
  service.evaluate({cliff_point()}, 0.05);
  service.flush(cache.path(), false);

  result_store restored;
  restored.load_json(read_file(cache.path()).value(), service.header());
  const core::sweep_request resolved = service.resolve(cliff_point());
  const auto entry =
      restored.find(core::fingerprint(resolved));
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->mc_m2, 0.0);           // Welford M2 round-tripped
  EXPECT_EQ(entry->budget_target, 0.05);  // rung provenance round-tripped
}

TEST(TopUpTest, StatsCountLifetimeTopUps) {
  sweep_service service = make_service();
  service.evaluate({cliff_point()}, 0.05);
  service.evaluate({cliff_point()}, 0.02);
  service.evaluate({cliff_point()}, 0.01);
  EXPECT_EQ(service.stats().topped_up, 2u);
}

TEST(TopUpTest, FlushPersistsBeforeClearing) {
  // The ordering bug class the protocol fix pins: a flush with
  // clear=true must write the entries to disk BEFORE dropping them, so
  // the persisted file holds exactly what was just cleared.
  temp_file cache("nwdec_flush_order_test.json");
  sweep_service service = make_service();
  service.evaluate({cliff_point(500)});
  const flush_summary summary = service.flush(cache.path(), true);
  EXPECT_TRUE(summary.persisted);
  EXPECT_EQ(summary.entries, 1u);
  EXPECT_TRUE(summary.cleared);
  EXPECT_EQ(service.stats().entries, 0u);  // memory dropped...

  sweep_service restored = make_service();
  // ...the file kept them.
  ASSERT_TRUE(make_durable(restored, cache.path()).snapshot_loaded);
  EXPECT_EQ(restored.stats().entries, 1u);
  const sweep_response warm = restored.evaluate({cliff_point(500)});
  EXPECT_EQ(warm.cached, 1u);
}

TEST(MixedBudgetTest, MixedTargetsAreOneEngineRunWithUnchangedPayloads) {
  // A fixed point plus the cliff point under two targets: every budget
  // rides one engine run as per-point data, and each payload is the one
  // a cold single-target evaluation produces.
  core::sweep_request fixed = cliff_point(500);
  fixed.sigma_vt = 0.05;
  const std::vector<point_query> queries = {
      {fixed, 0.0}, {cliff_point(20000), 0.05}, {cliff_point(20000), 0.02}};

  metrics::counter& runs =
      metrics::registry::global().get_counter("nwdec_engine_runs_total");
  sweep_service mixed_service = make_service();
  const std::uint64_t runs_before = runs.value();
  const sweep_response mixed = mixed_service.evaluate(queries);
  EXPECT_EQ(runs.value() - runs_before, 1u);
  EXPECT_EQ(mixed.computed, 3u);

  sweep_response singles;
  for (const point_query& query : queries) {
    sweep_service cold = make_service();
    singles.points.push_back(cold.evaluate({query}).points[0]);
  }
  EXPECT_EQ(to_json(mixed), to_json(singles));
  EXPECT_LT(mixed.points[1].result->mc_trials_used,
            mixed.points[2].result->mc_trials_used);
}

}  // namespace
}  // namespace nwdec::service
