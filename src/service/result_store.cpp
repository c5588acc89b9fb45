#include "service/result_store.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "codes/code_space.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nwdec::service {

namespace {

// Version 2 added the per-entry resumable moments ("m2") and the CI-target
// provenance ("budget_target") the cross-restart top-up needs; version-1
// files are refused (the daemon starts cold and overwrites on persistence).
constexpr int store_format_version = 2;

// u64 values (seed, fingerprints) travel as decimal strings: a JSON number
// is parsed as a double, which cannot represent every 64-bit integer.
std::string u64_string(std::uint64_t value) { return std::to_string(value); }

// ---- typed field reads for the streaming decoders. Each consumes one
// member value from the reader and throws invalid_argument_error naming
// the field when the value has the wrong kind or range.

[[noreturn]] void field_error(const json_reader& reader, std::string_view name,
                              const char* expected) {
  throw invalid_argument_error("field '" + std::string(name) + "' is not " +
                               expected + " (offset " +
                               std::to_string(reader.offset()) + ")");
}

double read_number(json_reader& reader, std::string_view name) {
  if (reader.peek() != json_value::kind::number) {
    field_error(reader, name, "a number");
  }
  return reader.read_number();
}

std::size_t read_size(json_reader& reader, std::string_view name) {
  const double value = read_number(reader, name);
  if (!(value >= 0.0 && std::floor(value) == value &&
        value <= 9007199254740992.0)) {  // 2^53
    field_error(reader, name, "a non-negative integer");
  }
  return static_cast<std::size_t>(value);
}

bool read_bool(json_reader& reader, std::string_view name) {
  if (reader.peek() != json_value::kind::boolean) {
    field_error(reader, name, "a boolean");
  }
  return reader.read_bool();
}

std::string_view read_string(json_reader& reader, std::string_view name) {
  if (reader.peek() != json_value::kind::string) {
    field_error(reader, name, "a string");
  }
  return reader.read_string();
}

std::uint64_t read_u64(json_reader& reader, std::string_view name) {
  const std::string_view text = read_string(reader, name);
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const std::from_chars_result result =
      std::from_chars(text.data(), last, value);
  // from_chars on an unsigned type takes digits only: no sign, no space.
  if (text.empty() || result.ec != std::errc{} || result.ptr != last) {
    field_error(reader, name, "a decimal u64 string");
  }
  return value;
}

// Member names -> dense indices, so a decoder tracks which members it has
// seen in one bitmask. Unknown members map to -1 and are skipped. The
// names are listed in writer order and the search starts at `next`, the
// slot after the previous match, so a canonical document costs one
// compare per member while any order still decodes.
template <std::size_t N>
int member_index(const std::string_view (&names)[N], std::string_view key,
                 std::size_t& next) {
  for (std::size_t k = 0; k < N; ++k) {
    const std::size_t at = (next + k) % N;
    if (names[at] == key) {
      next = at + 1;
      return static_cast<int>(at);
    }
  }
  return -1;
}

template <std::size_t N>
void require_members(const std::string_view (&names)[N], std::uint32_t seen,
                     std::uint32_t required, const char* where) {
  const std::uint32_t missing = required & ~seen;
  if (missing == 0) return;
  std::size_t first = 0;
  while ((missing & (1u << first)) == 0) ++first;
  throw not_found_error(std::string(where) + " has no member '" +
                        std::string(names[first]) + "'");
}

constexpr std::uint32_t bit(int index) { return 1u << index; }

// The members of write_stored_result, in writer order. The Wilson bounds
// and standard error are derived from (mean, trials) and not read back.
enum result_member {
  m_code, m_radix, m_length, m_nanowires, m_sigma_vt, m_mc_trials,
  m_has_defects, m_broken_probability, m_bridge_probability, m_omega, m_phi,
  m_average_variability, m_contact_groups, m_expected_discarded,
  m_nanowire_yield, m_crosspoint_yield, m_effective_bits, m_total_area_nm2,
  m_bit_area_nm2, m_has_monte_carlo, m_mc_nanowire_yield, m_mc_ci_low,
  m_mc_ci_high, m_mc_trials_used
};
constexpr std::string_view result_members[] = {
    "code", "radix", "length", "nanowires", "sigma_vt", "mc_trials",
    "has_defects", "broken_probability", "bridge_probability", "omega", "phi",
    "average_variability", "contact_groups", "expected_discarded",
    "nanowire_yield", "crosspoint_yield", "effective_bits", "total_area_nm2",
    "bit_area_nm2", "has_monte_carlo", "mc_nanowire_yield", "mc_ci_low",
    "mc_ci_high", "mc_trials_used"};
constexpr std::uint32_t defect_members =
    bit(m_broken_probability) | bit(m_bridge_probability);
constexpr std::uint32_t monte_carlo_members =
    bit(m_mc_nanowire_yield) | bit(m_mc_ci_low) | bit(m_mc_ci_high) |
    bit(m_mc_trials_used);
constexpr std::uint32_t always_required =
    ((bit(m_mc_trials_used) << 1) - 1) & ~defect_members &
    ~monte_carlo_members;

// Inverse of write_stored_result, straight from the reader. Members come
// in any order (a repeated member keeps its last value); the defect and
// Monte-Carlo members are required exactly when their flag is set.
stored_result read_stored_result(json_reader& reader) {
  if (reader.peek() != json_value::kind::object) {
    field_error(reader, "result", "an object");
  }
  stored_result result;
  core::sweep_request& request = result.request;
  core::design_evaluation& e = result.evaluation;
  bool has_defects = false;
  fab::defect_params defects;
  double mc_nanowire_yield = 0.0;
  double mc_ci_low = 0.0;
  double mc_ci_high = 0.0;
  std::size_t mc_trials_used = 0;

  std::uint32_t seen = 0;
  std::size_t next = 0;
  std::string_view key;
  reader.begin_object();
  while (reader.next_member(key)) {
    const int member = member_index(result_members, key, next);
    if (member < 0) {
      reader.skip_value();
      continue;
    }
    seen |= bit(member);
    const std::string_view name = result_members[member];
    switch (static_cast<result_member>(member)) {
      case m_code:
        request.design.type =
            codes::parse_code_type(std::string(read_string(reader, name)));
        break;
      case m_radix:
        request.design.radix = static_cast<unsigned>(read_size(reader, name));
        break;
      case m_length: request.design.length = read_size(reader, name); break;
      case m_nanowires: request.nanowires = read_size(reader, name); break;
      case m_sigma_vt: request.sigma_vt = read_number(reader, name); break;
      case m_mc_trials: request.mc_trials = read_size(reader, name); break;
      case m_has_defects: has_defects = read_bool(reader, name); break;
      case m_broken_probability:
        defects.broken_probability = read_number(reader, name);
        break;
      case m_bridge_probability:
        defects.bridge_probability = read_number(reader, name);
        break;
      case m_omega: e.code_space = read_size(reader, name); break;
      case m_phi: e.fabrication_steps = read_size(reader, name); break;
      case m_average_variability:
        e.average_variability = read_number(reader, name);
        break;
      case m_contact_groups: e.contact_groups = read_size(reader, name); break;
      case m_expected_discarded:
        e.expected_discarded = read_number(reader, name);
        break;
      case m_nanowire_yield:
        e.nanowire_yield = read_number(reader, name);
        break;
      case m_crosspoint_yield:
        e.crosspoint_yield = read_number(reader, name);
        break;
      case m_effective_bits:
        e.effective_bits = read_number(reader, name);
        break;
      case m_total_area_nm2:
        e.total_area_nm2 = read_number(reader, name);
        break;
      case m_bit_area_nm2:
        e.bit_area_nm2 = read_number(reader, name);
        break;
      case m_has_monte_carlo:
        e.has_monte_carlo = read_bool(reader, name);
        break;
      case m_mc_nanowire_yield:
        mc_nanowire_yield = read_number(reader, name);
        break;
      case m_mc_ci_low: mc_ci_low = read_number(reader, name); break;
      case m_mc_ci_high: mc_ci_high = read_number(reader, name); break;
      case m_mc_trials_used: mc_trials_used = read_size(reader, name); break;
    }
  }

  std::uint32_t required = always_required;
  if (has_defects) required |= defect_members;
  if (e.has_monte_carlo) required |= monte_carlo_members;
  require_members(result_members, seen, required, "stored result");
  if (has_defects) request.defects = defects;
  e.point = request.design;
  if (e.has_monte_carlo) {
    // write_stored_result derives the Wilson bounds and the standard error
    // from (mean, trials): an entry it could not render is refused here
    // rather than failing every later response or snapshot that holds it.
    if (!(mc_trials_used > 0 && mc_nanowire_yield >= 0.0 &&
          mc_nanowire_yield <= 1.0)) {
      throw invalid_argument_error(
          "stored result has a Monte-Carlo mean outside [0, 1] or no trials");
    }
    e.mc_nanowire_yield = mc_nanowire_yield;
    e.mc_ci_low = mc_ci_low;
    e.mc_ci_high = mc_ci_high;
    result.mc_trials_used = mc_trials_used;
  }
  return result;
}

// Inverse of write_store_entry, straight from the reader (see
// parse_store_entry in the header for the rules).
parsed_store_entry read_store_entry(json_reader& reader) {
  enum entry_member { m_fingerprint, m_m2, m_budget_target, m_result };
  static constexpr std::string_view entry_members[] = {
      "fingerprint", "m2", "budget_target", "result"};
  if (reader.peek() != json_value::kind::object) {
    field_error(reader, "entries", "an array of objects");
  }
  parsed_store_entry entry;
  // The entry-level members may precede "result"; they are applied after
  // the object closes so a later "result" cannot overwrite them.
  double m2 = 0.0;
  double budget_target = 0.0;
  std::uint32_t seen = 0;
  std::size_t next = 0;
  std::string_view key;
  reader.begin_object();
  while (reader.next_member(key)) {
    const int member = member_index(entry_members, key, next);
    if (member < 0) {
      reader.skip_value();
      continue;
    }
    seen |= bit(member);
    const std::string_view name = entry_members[member];
    switch (static_cast<entry_member>(member)) {
      case m_fingerprint: entry.fingerprint = read_u64(reader, name); break;
      case m_m2: m2 = read_number(reader, name); break;
      case m_budget_target: budget_target = read_number(reader, name); break;
      case m_result: entry.result = read_stored_result(reader); break;
    }
  }
  require_members(entry_members, seen, (bit(m_result) << 1) - 1,
                  "store entry");
  entry.result.mc_m2 = m2;
  entry.result.budget_target = budget_target;
  const std::uint64_t recomputed = core::fingerprint(entry.result.request);
  NWDEC_EXPECTS(entry.fingerprint == recomputed,
                "store entry fingerprint mismatch (incompatible "
                "fingerprint scheme or corrupted file)");
  return entry;
}

}  // namespace

std::uint64_t technology_fingerprint(const device::technology& tech) {
  std::uint64_t h = 0xe7037ed1a0b428dbULL;
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = rng::counter_seed(h, bits);
  };
  mix_double(tech.litho_pitch_nm);
  mix_double(tech.nanowire_pitch_nm);
  mix_double(tech.contact_min_width_factor);
  mix_double(tech.boundary_band_nm);
  mix_double(tech.cave_wall_overhead_nm);
  mix_double(tech.contact_depth_nm);
  mix_double(tech.supply_voltage);
  mix_double(tech.sigma_vt);
  mix_double(tech.window_fraction);
  mix_double(tech.gate_oxide_nm);
  mix_double(tech.temperature_k);
  return h;
}

const char* mc_mode_name(yield::mc_mode mode) {
  return mode == yield::mc_mode::window ? "window" : "operational";
}

yield::mc_mode parse_mc_mode(const std::string& name) {
  if (name == "window") return yield::mc_mode::window;
  if (name == "operational") return yield::mc_mode::operational;
  throw invalid_argument_error("unknown mc mode '" + name +
                               "' (expected window | operational)");
}

void write_stored_result(json_writer& json, const stored_result& result) {
  const core::design_evaluation& e = result.evaluation;
  const fab::defect_params defects =
      result.request.defects.value_or(fab::defect_params{});
  json.begin_object()
      .field("code", codes::code_type_name(result.request.design.type))
      .field("radix", result.request.design.radix)
      .field("length", result.request.design.length)
      .field("nanowires", result.request.nanowires)
      .field("sigma_vt", result.request.sigma_vt)
      .field("mc_trials", result.request.mc_trials)
      .field("has_defects", result.request.defects.has_value())
      .field("broken_probability", defects.broken_probability)
      .field("bridge_probability", defects.bridge_probability)
      .field("omega", e.code_space)
      .field("phi", e.fabrication_steps)
      .field("average_variability", e.average_variability)
      .field("contact_groups", e.contact_groups)
      .field("expected_discarded", e.expected_discarded)
      .field("nanowire_yield", e.nanowire_yield)
      .field("crosspoint_yield", e.crosspoint_yield)
      .field("effective_bits", e.effective_bits)
      .field("total_area_nm2", e.total_area_nm2)
      .field("bit_area_nm2", e.bit_area_nm2)
      .field("has_monte_carlo", e.has_monte_carlo);
  if (e.has_monte_carlo) {
    // The Wilson bounds and standard error are derived on the fly from the
    // stored (mean, trials_used) -- pure functions of the payload, so a
    // reloaded entry re-emits the identical block.
    const double trials_used = static_cast<double>(result.mc_trials_used);
    const interval wilson =
        wilson_interval(e.mc_nanowire_yield * trials_used, trials_used);
    json.field("mc_nanowire_yield", e.mc_nanowire_yield)
        .field("mc_ci_low", e.mc_ci_low)
        .field("mc_ci_high", e.mc_ci_high)
        .field("mc_wilson_low", wilson.low)
        .field("mc_wilson_high", wilson.high)
        .field("mc_stderr", proportion_stderr(e.mc_nanowire_yield, trials_used))
        .field("mc_trials_used", result.mc_trials_used);
  }
  json.end_object();
}

void write_store_entry(json_writer& json, std::uint64_t fingerprint,
                       const stored_result& result) {
  // The resumable moments and target provenance ride at the entry level:
  // the "result" member stays exactly the response payload
  // (write_stored_result), so the daemon's cold/warm byte identity never
  // depends on fields only the top-up machinery reads.
  json.begin_object()
      .field("fingerprint", u64_string(fingerprint))
      .field("m2", result.mc_m2)
      .field("budget_target", result.budget_target);
  json.key("result");
  write_stored_result(json, result);
  json.end_object();
}

parsed_store_entry parse_store_entry(std::string_view text) {
  json_reader reader(text);
  parsed_store_entry entry = read_store_entry(reader);
  reader.finish();
  return entry;
}

result_store::result_store(std::size_t capacity) : capacity_(capacity) {
  NWDEC_EXPECTS(capacity >= 1, "the result store needs capacity >= 1");
}

void result_store::lru_list::push_front(slot& node) {
  node.second.newer = nullptr;
  node.second.older = newest;
  if (newest != nullptr) newest->second.newer = &node;
  newest = &node;
  if (oldest == nullptr) oldest = &node;
  ++size;
}

void result_store::lru_list::unlink(slot& node) {
  entry& e = node.second;
  (e.newer != nullptr ? e.newer->second.older : newest) = e.older;
  (e.older != nullptr ? e.older->second.newer : oldest) = e.newer;
  e.newer = e.older = nullptr;
  --size;
}

void result_store::touch(slot& node, lru_list& from, lru_list& home) {
  from.unlink(node);
  home.push_front(node);
  node.second.touched = ++touch_counter_;
}

const stored_result* result_store::peek(std::uint64_t fingerprint) const {
  const auto found = index_.find(fingerprint);
  return found == index_.end() ? nullptr : found->second.result.get();
}

std::shared_ptr<const stored_result> result_store::find(
    std::uint64_t fingerprint) {
  const auto found = index_.find(fingerprint);
  if (found == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_list& home = list_for(*found->second.result);
  touch(*found, home, home);
  return found->second.result;
}

void result_store::evict_one() {
  // Cost-aware policy: shed the cheap (analytic-only) class first, LRU
  // within it; Monte-Carlo entries go only when nothing cheap is left.
  lru_list& victims = cheap_.size > 0 ? cheap_ : expensive_;
  if (&victims == &cheap_) {
    ++stats_.cheap_evictions;
  } else {
    ++stats_.mc_evictions;
  }
  slot& victim = *victims.oldest;
  victims.unlink(victim);
  index_.erase(victim.first);
  ++stats_.evictions;
}

std::shared_ptr<const stored_result> make_stored_result(stored_result result) {
  return std::allocate_shared<const stored_result>(
      slot_allocator<stored_result>(), std::move(result));
}

void result_store::insert(std::uint64_t fingerprint, stored_result result) {
  insert(fingerprint, make_stored_result(std::move(result)));
}

void result_store::insert(std::uint64_t fingerprint,
                          std::shared_ptr<const stored_result> result) {
  NWDEC_EXPECTS(result != nullptr, "the store holds results, not nulls");
  lru_list& home = list_for(*result);
  const auto [found, fresh] = index_.try_emplace(fingerprint);
  if (fresh) {
    home.push_front(*found);
    found->second.touched = ++touch_counter_;
  } else {
    // Refresh in place; a replacement may change cost class (e.g. an
    // adaptive budget that stopped at zero trials under one policy), in
    // which case the entry migrates lists.
    touch(*found, list_for(*found->second.result), home);
  }
  found->second.result = std::move(result);
  if (fresh && size() > capacity_) evict_one();
  ++stats_.insertions;
}

void result_store::clear() {
  cheap_ = lru_list{};
  expensive_ = lru_list{};
  index_.clear();
}

std::string result_store::to_json(const store_header& header) const {
  json_writer json;
  json.begin_object()
      .field("nwdec_result_store", store_format_version)
      .field("seed", u64_string(header.seed))
      .field("mode", mc_mode_name(header.mode))
      .field("raw_bits", header.raw_bits)
      .field("tech_fingerprint", u64_string(header.tech_fingerprint))
      .field("budget_fingerprint", u64_string(header.budget_fingerprint));
  json.key("entries").begin_array();
  // Least recently used first: load_json reinserts in document order, so
  // the reloaded store has the identical recency (and eviction) order.
  // Both class lists are recency-ordered on their own; merging their tails
  // on the global touch stamp reconstructs the store-wide order.
  const slot* cheap = cheap_.oldest;
  const slot* expensive = expensive_.oldest;
  while (cheap != nullptr || expensive != nullptr) {
    const bool take_cheap =
        expensive == nullptr ||
        (cheap != nullptr &&
         cheap->second.touched < expensive->second.touched);
    const slot*& next = take_cheap ? cheap : expensive;
    write_store_entry(json, next->first, *next->second.result);
    next = next->second.newer;
  }
  return json.end_array().end_object().str();
}

void result_store::load_json(std::string_view text,
                             const store_header& expected) {
  enum document_member {
    m_version, m_seed, m_mode, m_raw_bits, m_tech_fingerprint,
    m_budget_fingerprint, m_entries
  };
  static constexpr std::string_view document_members[] = {
      "nwdec_result_store", "seed", "mode", "raw_bits", "tech_fingerprint",
      "budget_fingerprint", "entries"};
  constexpr std::uint32_t header_members = bit(m_entries) - 1;

  json_reader reader(text);
  if (reader.peek() != json_value::kind::object) {
    // Finish the grammar check first, so malformed JSON still reports as
    // json_parse_error.
    reader.skip_value();
    reader.finish();
    throw invalid_argument_error("not a result-store document");
  }

  std::size_t version = 0;
  store_header header;
  std::uint32_t seen = 0;
  const auto check_header = [&] {
    NWDEC_EXPECTS((seen & bit(m_version)) != 0 &&
                      version == static_cast<std::size_t>(
                                     store_format_version),
                  "not a result-store document (or an unknown format "
                  "version)");
    require_members(document_members, seen, header_members,
                    "result-store document");
    if (!(header == expected)) {
      throw invalid_argument_error(
          "result-store header mismatch: the cache was computed under a "
          "different (seed, mode, raw_bits, technology, budget) "
          "configuration; refusing to serve stale results");
    }
  };

  // Stage every entry before touching the store: a corrupt entry anywhere
  // in the file must leave the current contents intact (a partial load
  // would otherwise be persisted back over the good file at shutdown).
  std::vector<parsed_store_entry> staged;
  std::size_t next = 0;
  std::string_view key;
  reader.begin_object();
  while (reader.next_member(key)) {
    const int member = member_index(document_members, key, next);
    if (member < 0) {
      reader.skip_value();
      continue;
    }
    seen |= bit(member);
    const std::string_view name = document_members[member];
    switch (static_cast<document_member>(member)) {
      case m_version: version = read_size(reader, name); break;
      case m_seed: header.seed = read_u64(reader, name); break;
      case m_mode:
        header.mode = parse_mc_mode(std::string(read_string(reader, name)));
        break;
      case m_raw_bits: header.raw_bits = read_size(reader, name); break;
      case m_tech_fingerprint:
        header.tech_fingerprint = read_u64(reader, name);
        break;
      case m_budget_fingerprint:
        header.budget_fingerprint = read_u64(reader, name);
        break;
      case m_entries:
        // The writer puts the header first: refuse a foreign configuration
        // before decoding any entry. The check repeats after the document
        // closes, so a header member repeated later is still checked.
        if ((seen & header_members) == header_members) check_header();
        if (reader.peek() != json_value::kind::array) {
          field_error(reader, name, "an array");
        }
        staged.clear();
        reader.begin_array();
        while (reader.next_element()) {
          staged.push_back(read_store_entry(reader));
        }
        break;
    }
  }
  reader.finish();
  check_header();
  require_members(document_members, seen, bit(m_entries),
                  "result-store document");

  clear();
  index_.reserve(std::min(staged.size(), capacity_ + 1));
  for (parsed_store_entry& entry : staged) {
    insert(entry.fingerprint, std::move(entry.result));
  }
}

void result_store::save_file(const std::string& path,
                             const store_header& header) const {
  // tmp + fsync + rename: a crash mid-save leaves the previous complete
  // snapshot, never a torn file that a restart would refuse to load.
  write_file_atomic(path, to_json(header));
}

}  // namespace nwdec::service
