// The fingerprint-keyed LRU result store: recency/eviction behavior, the
// JSON persistence round trip (byte-identical payloads), and the header
// and fingerprint guards that keep stale caches from being served.
#include "service/result_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/sweep_engine.h"
#include "store_entry_oracle.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/json.h"

namespace nwdec::service {
namespace {

stored_result make_result(double sigma, std::size_t trials_used = 0) {
  stored_result result;
  result.request.design = {codes::code_type::balanced_gray, 2, 8};
  result.request.nanowires = 20;
  result.request.sigma_vt = sigma;
  result.request.mc_trials = trials_used == 0 ? 0 : 150;
  result.evaluation.point = result.request.design;
  result.evaluation.code_space = 16;
  result.evaluation.fabrication_steps = 40;
  result.evaluation.average_variability = 3.375;
  result.evaluation.contact_groups = 2;
  result.evaluation.expected_discarded = 1.4;
  result.evaluation.nanowire_yield = 0.8641173107133364;
  result.evaluation.crosspoint_yield = 0.7466987266744488;
  result.evaluation.effective_bits = 97871.29550267335;
  result.evaluation.total_area_nm2 = 21362884.0;
  result.evaluation.bit_area_nm2 = 218.27527560842876;
  if (trials_used > 0) {
    result.evaluation.has_monte_carlo = true;
    result.evaluation.mc_nanowire_yield = 0.859;
    result.evaluation.mc_ci_low = 0.8404924447859798;
    result.evaluation.mc_ci_high = 0.8775075552140199;
    result.mc_trials_used = trials_used;
  }
  return result;
}

std::uint64_t key_of(const stored_result& result) {
  return core::fingerprint(result.request);
}

class temp_file {
 public:
  explicit temp_file(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::remove(path_.c_str());
  }
  ~temp_file() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ResultStoreTest, FindMissesThenHitsAfterInsert) {
  result_store store(8);
  const stored_result result = make_result(0.05, 150);
  EXPECT_EQ(store.find(key_of(result)), nullptr);
  store.insert(key_of(result), result);
  const auto hit = store.find(key_of(result));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->evaluation.nanowire_yield,
            result.evaluation.nanowire_yield);
  EXPECT_EQ(hit->mc_trials_used, 150u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().insertions, 1u);
}

TEST(ResultStoreTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  result_store store(2);
  const stored_result a = make_result(0.01);
  const stored_result b = make_result(0.02);
  const stored_result c = make_result(0.03);
  store.insert(key_of(a), a);
  store.insert(key_of(b), b);
  // Touch a so b becomes the least recently used, then push it out.
  EXPECT_NE(store.find(key_of(a)), nullptr);
  store.insert(key_of(c), c);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_NE(store.find(key_of(a)), nullptr);
  EXPECT_NE(store.find(key_of(c)), nullptr);
  EXPECT_EQ(store.find(key_of(b)), nullptr);
}

TEST(ResultStoreTest, EvictsCheapAnalyticEntriesBeforeMonteCarloOnes) {
  // Cost-aware policy: a full store sheds analytic-only entries (cheap to
  // recompute) before anything that paid for Monte-Carlo trials, LRU
  // within each class.
  result_store store(3);
  const stored_result cheap_old = make_result(0.01);
  const stored_result mc_a = make_result(0.02, 150);
  const stored_result cheap_new = make_result(0.03);
  const stored_result mc_b = make_result(0.04, 150);
  store.insert(key_of(cheap_old), cheap_old);
  store.insert(key_of(mc_a), mc_a);
  store.insert(key_of(cheap_new), cheap_new);

  // cheap_old is the overall LRU *and* the cheap LRU: it goes first.
  store.insert(key_of(mc_b), mc_b);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.find(key_of(cheap_old)), nullptr);
  EXPECT_NE(store.find(key_of(mc_a)), nullptr);

  // Make the one remaining cheap entry the most recently used overall:
  // cost still outranks recency, so eviction must pick it anyway.
  EXPECT_NE(store.find(key_of(cheap_new)), nullptr);  // cheap is now MRU
  const stored_result mc_c = make_result(0.05, 150);
  store.insert(key_of(mc_c), mc_c);
  EXPECT_EQ(store.find(key_of(cheap_new)), nullptr)
      << "the most recently used entry was still the only cheap one";
  EXPECT_NE(store.find(key_of(mc_a)), nullptr);
  EXPECT_NE(store.find(key_of(mc_b)), nullptr);
  EXPECT_EQ(store.stats().cheap_evictions, 2u);
  EXPECT_EQ(store.stats().mc_evictions, 0u);

  // Only Monte-Carlo entries left: eviction falls back to their LRU (the
  // finds above refreshed mc_a then mc_b, leaving mc_c the class LRU).
  const stored_result mc_d = make_result(0.06, 150);
  store.insert(key_of(mc_d), mc_d);
  EXPECT_EQ(store.find(key_of(mc_c)), nullptr);
  EXPECT_EQ(store.stats().mc_evictions, 1u);
  EXPECT_EQ(store.cheap_size(), 0u);
  EXPECT_EQ(store.expensive_size(), 3u);
}

TEST(ResultStoreTest, CostClassPersistenceRoundTripsRecencyAndPolicy) {
  // Save / load must reproduce the interleaved recency order across both
  // cost classes, so the reloaded store makes the same eviction decisions.
  result_store store(4);
  const stored_result cheap_a = make_result(0.01);
  const stored_result mc_a = make_result(0.02, 150);
  const stored_result cheap_b = make_result(0.03);
  const stored_result mc_b = make_result(0.04, 150);
  store.insert(key_of(cheap_a), cheap_a);
  store.insert(key_of(mc_a), mc_a);
  store.insert(key_of(cheap_b), cheap_b);
  store.insert(key_of(mc_b), mc_b);
  EXPECT_NE(store.find(key_of(cheap_a)), nullptr);  // cheap_b becomes LRU

  const store_header header{};
  result_store reloaded(4);
  reloaded.load_json(store.to_json(header), header);
  EXPECT_EQ(reloaded.size(), 4u);
  EXPECT_EQ(reloaded.cheap_size(), 2u);
  EXPECT_EQ(reloaded.expensive_size(), 2u);
  // Same decision the original store would make: cheap_b out first.
  const stored_result mc_c = make_result(0.05, 150);
  reloaded.insert(key_of(mc_c), mc_c);
  EXPECT_EQ(reloaded.find(key_of(cheap_b)), nullptr);
  EXPECT_NE(reloaded.find(key_of(cheap_a)), nullptr);
  // And the serialized bytes themselves are stable across the round trip.
  result_store again(4);
  again.load_json(store.to_json(header), header);
  EXPECT_EQ(store.to_json(header), again.to_json(header));
}

TEST(ResultStoreTest, ReinsertRefreshesInsteadOfGrowing) {
  result_store store(4);
  stored_result a = make_result(0.01);
  store.insert(key_of(a), a);
  a.evaluation.nanowire_yield = 0.5;
  store.insert(key_of(a), a);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(key_of(a))->evaluation.nanowire_yield, 0.5);
}

TEST(ResultStoreTest, RejectsZeroCapacity) {
  EXPECT_THROW(result_store(0), invalid_argument_error);
}

TEST(ResultStoreTest, StoredResultSerializationRoundTrips) {
  for (const bool with_defects : {false, true}) {
    stored_result original = make_result(0.065, 271);
    if (with_defects) {
      original.request.defects = fab::defect_params{0.05, 0.01};
    }
    json_writer json;
    write_stored_result(json, original);
    const std::string text = json.str();
    const stored_result reparsed = parse_stored_result(json_parse(text));

    // The reparsed result re-serializes byte-identically -- the exact
    // double round trip end to end.
    json_writer again;
    write_stored_result(again, reparsed);
    EXPECT_EQ(again.str(), text);
    EXPECT_EQ(key_of(reparsed), key_of(original));
    EXPECT_EQ(reparsed.mc_trials_used, original.mc_trials_used);
    EXPECT_EQ(reparsed.request.defects.has_value(), with_defects);
  }
}

TEST(ResultStoreTest, PersistenceRoundTripPreservesBytesAndRecency) {
  const store_header header{2009, yield::mc_mode::operational, 131072, 0};
  result_store store(3);
  const stored_result a = make_result(0.01, 100);
  const stored_result b = make_result(0.02, 200);
  const stored_result c = make_result(0.03, 300);
  store.insert(key_of(a), a);
  store.insert(key_of(b), b);
  store.insert(key_of(c), c);
  EXPECT_NE(store.find(key_of(a)), nullptr);  // a is now most recent

  const std::string text = store.to_json(header);
  result_store reloaded(3);
  reloaded.load_json(text, header);
  EXPECT_EQ(reloaded.size(), 3u);
  // Byte-identical re-serialization (exact doubles + preserved order).
  EXPECT_EQ(reloaded.to_json(header), text);

  // Recency survived: inserting one more evicts b (the LRU), not a.
  const stored_result d = make_result(0.04, 400);
  reloaded.insert(key_of(d), d);
  EXPECT_EQ(reloaded.find(key_of(b)), nullptr);
  EXPECT_NE(reloaded.find(key_of(a)), nullptr);
}

TEST(ResultStoreTest, LoadRejectsHeaderMismatches) {
  const store_header header{2009, yield::mc_mode::operational, 131072, 0};
  result_store store(4);
  store.insert(key_of(make_result(0.05)), make_result(0.05));
  const std::string text = store.to_json(header);

  result_store other(4);
  store_header wrong = header;
  wrong.seed = 7;
  EXPECT_THROW(other.load_json(text, wrong), invalid_argument_error);
  wrong = header;
  wrong.mode = yield::mc_mode::window;
  EXPECT_THROW(other.load_json(text, wrong), invalid_argument_error);
  wrong = header;
  wrong.raw_bits = 1;
  EXPECT_THROW(other.load_json(text, wrong), invalid_argument_error);
  wrong = header;
  wrong.tech_fingerprint = 42;
  EXPECT_THROW(other.load_json(text, wrong), invalid_argument_error);
  wrong = header;
  wrong.budget_fingerprint = 99;
  EXPECT_THROW(other.load_json(text, wrong), invalid_argument_error);
  EXPECT_NO_THROW(other.load_json(text, header));
}

TEST(ResultStoreTest, LoadRejectsTamperedFingerprintsWithoutPartialLoads) {
  const store_header header{1, yield::mc_mode::operational, 131072, 0};
  result_store store(4);
  const stored_result a = make_result(0.05);
  const stored_result b = make_result(0.06);
  store.insert(key_of(a), a);
  store.insert(key_of(b), b);
  std::string text = store.to_json(header);
  // Corrupt the SECOND entry's fingerprint (the first stays valid), so a
  // naive entry-by-entry load would leave a partial store behind.
  const std::string needle = std::to_string(key_of(b));
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "12345");

  result_store other(4);
  const stored_result existing = make_result(0.09);
  other.insert(key_of(existing), existing);
  EXPECT_THROW(other.load_json(text, header), invalid_argument_error);
  // The failed load must not have touched the previous contents.
  EXPECT_EQ(other.size(), 1u);
  EXPECT_NE(other.find(key_of(existing)), nullptr);
  EXPECT_EQ(other.find(key_of(a)), nullptr);
}

TEST(ResultStoreTest, TechnologyFingerprintSeparatesPlatforms) {
  const device::technology paper = device::paper_technology();
  EXPECT_EQ(technology_fingerprint(paper), technology_fingerprint(paper));
  device::technology other = paper;
  other.sigma_vt = 0.06;
  EXPECT_NE(technology_fingerprint(other), technology_fingerprint(paper));
  other = paper;
  other.litho_pitch_nm = 22.0;
  EXPECT_NE(technology_fingerprint(other), technology_fingerprint(paper));
  other = paper;
  other.window_fraction = 0.4;
  EXPECT_NE(technology_fingerprint(other), technology_fingerprint(paper));
}

TEST(ResultStoreTest, LoadRejectsGarbageDocuments) {
  const store_header header{1, yield::mc_mode::operational, 131072, 0};
  result_store store(4);
  EXPECT_THROW(store.load_json("not json", header), json_parse_error);
  EXPECT_THROW(store.load_json("{\"different\": 1}\n", header),
               nwdec::error);
}

TEST(ResultStoreTest, FileHelpersRoundTripAndSignalAbsence) {
  const store_header header{3, yield::mc_mode::window, 131072, 17};
  temp_file file("nwdec_result_store_test.json");
  result_store store(4);
  EXPECT_FALSE(read_file(file.path()).has_value());  // cold cache

  store.insert(key_of(make_result(0.04, 80)), make_result(0.04, 80));
  store.save_file(file.path(), header);
  result_store reloaded(4);
  reloaded.load_json(read_file(file.path()).value(), header);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.to_json(header), store.to_json(header));
}

}  // namespace
}  // namespace nwdec::service
