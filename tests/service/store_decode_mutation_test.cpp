// Mutation test for the disk-facing store decoders: result_store::load_json
// (snapshots) and parse_store_entry (durable-store log record payloads).
//
// A small snapshot -- analytic, Monte-Carlo, defect and budget-target
// entries -- and one log record payload are cut at every truncation offset
// and hit with seeded byte flips, insertions (single bytes and duplicated
// chunks of the document itself) and deletions. Each mutant goes through
// the streaming decoder and through the tree-based oracle
// (store_entry_oracle.h). The streaming decoder must never accept what the
// oracle rejects, must decode exactly what the oracle decodes when both
// accept, must throw nothing but nwdec errors, and a rejected snapshot
// must leave the store untouched.
//
// The seeded mutant count defaults to a bounded tier-1 run; set
// NWDEC_MUTATION_ROUNDS to run more (the sanitizer CI job runs a long one).
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep_engine.h"
#include "service/result_store.h"
#include "store_entry_oracle.h"
#include "util/error.h"
#include "util/json.h"

namespace nwdec::service {
namespace {

const store_header kHeader{2009, yield::mc_mode::operational, 131072, 7, 0};

stored_result make_entry(codes::code_type type, unsigned radix,
                         std::size_t length, double sigma) {
  stored_result result;
  result.request.design = {type, radix, length};
  result.request.nanowires = 20;
  result.request.sigma_vt = sigma;
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
  return result;
}

void add_monte_carlo(stored_result& result, std::size_t cap,
                     std::size_t used, double m2) {
  result.request.mc_trials = cap;
  result.evaluation.has_monte_carlo = true;
  result.evaluation.mc_nanowire_yield = 0.859;
  result.evaluation.mc_ci_low = 0.8404924447859798;
  result.evaluation.mc_ci_high = 0.8775075552140199;
  result.mc_trials_used = used;
  result.mc_m2 = m2;
}

std::vector<stored_result> seed_entries() {
  std::vector<stored_result> entries;
  // Analytic only.
  entries.push_back(make_entry(codes::code_type::balanced_gray, 2, 8, 0.05));
  // Fixed-budget Monte-Carlo.
  stored_result mc = make_entry(codes::code_type::gray, 2, 6, 0.065);
  add_monte_carlo(mc, 150, 150, 18.125);
  entries.push_back(mc);
  // Monte-Carlo with structural defects.
  stored_result defect = make_entry(codes::code_type::tree, 3, 4, 0.04);
  defect.request.defects = fab::defect_params{0.05, 0.01};
  add_monte_carlo(defect, 200, 200, 21.5);
  entries.push_back(defect);
  // Stopped early under an adaptive CI-width target.
  stored_result target = make_entry(codes::code_type::hot, 2, 10, 0.08);
  add_monte_carlo(target, 4000, 600, 70.75);
  target.budget_target = 0.01;
  entries.push_back(target);
  // A second analytic entry with a non-default sigma spelling.
  entries.push_back(
      make_entry(codes::code_type::arranged_hot, 2, 12, 1.25e-3));
  return entries;
}

std::string seed_snapshot() {
  result_store store(16);
  for (const stored_result& entry : seed_entries()) {
    store.insert(core::fingerprint(entry.request), entry);
  }
  // Touch one entry so the document order is not the insertion order.
  store.find(core::fingerprint(seed_entries()[1].request));
  return store.to_json(kHeader);
}

std::string seed_payload() {
  const stored_result entry = seed_entries()[3];
  json_writer json(json_writer::style::compact);
  write_store_entry(json, core::fingerprint(entry.request), entry);
  return json.str();
}

// Every decoded field, including the ones write_store_entry omits when
// their flag is off, so "identical" means identical structs.
std::string describe(std::uint64_t fingerprint, const stored_result& result) {
  json_writer json(json_writer::style::compact);
  write_store_entry(json, fingerprint, result);
  const core::design_evaluation& e = result.evaluation;
  json.begin_object()
      .field("point_radix", e.point.radix)
      .field("point_length", e.point.length)
      .field("point_type", static_cast<int>(e.point.type))
      .field("mc_nanowire_yield", e.mc_nanowire_yield)
      .field("mc_ci_low", e.mc_ci_low)
      .field("mc_ci_high", e.mc_ci_high)
      .field("mc_trials_used", result.mc_trials_used)
      .field("has_defects", result.request.defects.has_value());
  if (result.request.defects.has_value()) {
    json.field("broken", result.request.defects->broken_probability)
        .field("bridge", result.request.defects->bridge_probability);
  }
  return json.end_object().str();
}

// splitmix64: a fixed, platform-independent mutant stream per seed.
class mutator {
 public:
  explicit mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(next() % bound);
  }

  /// One to three flips, insertions or deletions.
  std::string mutate(std::string text) {
    // Bytes that keep a mutant near the grammar, so some mutants stay
    // valid JSON and reach the typed decode.
    static const std::string alphabet = "0123456789-+.eE\"\\{}[],: \ntfnu";
    const std::size_t count = 1 + below(3);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t at = below(text.size() + 1);
      switch (below(6)) {
        case 0:  // bit flip
          if (at < text.size()) {
            text[at] = static_cast<char>(text[at] ^ (1 << below(8)));
          }
          break;
        case 1:  // byte replacement
          if (at < text.size()) text[at] = alphabet[below(alphabet.size())];
          break;
        case 2:  // byte insertion
          text.insert(at, 1, alphabet[below(alphabet.size())]);
          break;
        case 3: {  // duplicate a chunk of the document elsewhere
          if (text.empty()) break;
          const std::size_t from = below(text.size());
          const std::size_t length = 1 + below(64);
          text.insert(at, text.substr(from, length));
          break;
        }
        default:  // deletion of up to 8 bytes
          if (at < text.size()) text.erase(at, 1 + below(8));
          break;
      }
    }
    return text;
  }

 private:
  std::uint64_t state_;
};

std::size_t seeded_rounds() {
  if (const char* env = std::getenv("NWDEC_MUTATION_ROUNDS")) {
    std::size_t rounds = 0;
    const std::string_view text(env);
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), rounds);
    if (result.ec == std::errc{} && rounds > 0) return rounds;
  }
  return 2000;
}

struct tally {
  std::size_t both_accepted = 0;
  std::size_t both_rejected = 0;
  std::size_t only_oracle_accepted = 0;
};

void check_snapshot(const std::string& mutant, tally& counts) {
  std::optional<std::vector<parsed_store_entry>> expected;
  try {
    expected = oracle_load_snapshot(mutant, kHeader);
  } catch (const std::exception&) {
  }

  result_store store(16);
  const stored_result resident =
      make_entry(codes::code_type::gray, 4, 3, 0.03);
  store.insert(core::fingerprint(resident.request), resident);
  const std::string before = store.to_json(kHeader);
  bool accepted = true;
  try {
    store.load_json(mutant, kHeader);
  } catch (const nwdec::error&) {
    accepted = false;
  }

  if (!accepted) {
    EXPECT_EQ(store.to_json(kHeader), before)
        << "a rejected snapshot changed the store; mutant:\n" << mutant;
    ++(expected ? counts.only_oracle_accepted : counts.both_rejected);
    return;
  }
  ASSERT_TRUE(expected.has_value())
      << "accepted a snapshot the oracle rejects:\n" << mutant;
  ++counts.both_accepted;
  result_store reference(16);
  for (parsed_store_entry& entry : *expected) {
    reference.insert(entry.fingerprint, entry.result);
  }
  ASSERT_EQ(store.to_json(kHeader), reference.to_json(kHeader)) << mutant;
  for (const parsed_store_entry& entry : *expected) {
    const stored_result* decoded = store.peek(entry.fingerprint);
    ASSERT_NE(decoded, nullptr) << mutant;
    const stored_result* wanted = reference.peek(entry.fingerprint);
    EXPECT_EQ(describe(entry.fingerprint, *decoded),
              describe(entry.fingerprint, *wanted))
        << mutant;
  }
}

void check_payload(const std::string& mutant, tally& counts) {
  std::optional<parsed_store_entry> expected;
  try {
    expected = oracle_parse_store_entry(json_parse(mutant));
  } catch (const std::exception&) {
  }
  std::optional<parsed_store_entry> decoded;
  try {
    decoded = parse_store_entry(std::string_view(mutant));
  } catch (const nwdec::error&) {
  }
  if (!decoded) {
    ++(expected ? counts.only_oracle_accepted : counts.both_rejected);
    return;
  }
  ASSERT_TRUE(expected.has_value())
      << "accepted a record the oracle rejects:\n" << mutant;
  ++counts.both_accepted;
  EXPECT_EQ(decoded->fingerprint, expected->fingerprint) << mutant;
  EXPECT_EQ(describe(decoded->fingerprint, decoded->result),
            describe(expected->fingerprint, expected->result))
      << mutant;
}

TEST(StoreDecodeMutationTest, SeedDocumentsDecodeIdenticallyToTheOracle) {
  tally counts;
  check_snapshot(seed_snapshot(), counts);
  check_payload(seed_payload(), counts);
  EXPECT_EQ(counts.both_accepted, 2u);
  result_store store(16);
  store.load_json(seed_snapshot(), kHeader);
  EXPECT_EQ(store.size(), seed_entries().size());
  EXPECT_EQ(store.to_json(kHeader), seed_snapshot());
}

TEST(StoreDecodeMutationTest, EveryTruncationOfTheSnapshot) {
  const std::string text = seed_snapshot();
  tally counts;
  for (std::size_t length = 0; length < text.size(); ++length) {
    check_snapshot(text.substr(0, length), counts);
    if (HasFatalFailure()) return;
  }
  // Only the trailing newline can go; every shorter cut is refused.
  EXPECT_EQ(counts.both_accepted, 1u);
}

TEST(StoreDecodeMutationTest, EveryTruncationOfALogRecord) {
  const std::string text = seed_payload();
  tally counts;
  for (std::size_t length = 0; length < text.size(); ++length) {
    check_payload(text.substr(0, length), counts);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(counts.both_accepted, 1u);
}

TEST(StoreDecodeMutationTest, SeededSnapshotMutants) {
  const std::string text = seed_snapshot();
  mutator mutate(20090420);
  tally counts;
  const std::size_t rounds = seeded_rounds();
  for (std::size_t k = 0; k < rounds; ++k) {
    check_snapshot(mutate.mutate(text), counts);
    if (HasFatalFailure()) return;
  }
  // Non-vacuous: mutants land on both sides of the oracle.
  EXPECT_GT(counts.both_accepted, rounds / 50);
  EXPECT_GT(counts.both_rejected, rounds / 2);
}

TEST(StoreDecodeMutationTest, SeededLogRecordMutants) {
  const std::string text = seed_payload();
  mutator mutate(0x5eedULL);
  tally counts;
  const std::size_t rounds = seeded_rounds();
  for (std::size_t k = 0; k < rounds; ++k) {
    check_payload(mutate.mutate(text), counts);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(counts.both_accepted, rounds / 50);
  EXPECT_GT(counts.both_rejected, rounds / 2);
}

}  // namespace
}  // namespace nwdec::service
