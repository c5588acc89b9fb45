// service::result_store: result-level memoization for the sweep service.
//
// core::sweep_engine caches expensive *intermediates* (codes, decoder
// designs, trial contexts); this layer caches the *results* themselves,
// keyed by core::fingerprint(resolved request) -- a pure function of the
// point -- so an identical point is never recomputed across requests or
// across process restarts:
//
//   * in memory: a cost-aware LRU map bounded by `capacity` entries; a hit
//     refreshes recency. Entries fall into two cost classes -- cheap
//     (analytic-only, recomputable in microseconds) and expensive (entries
//     that paid for Monte-Carlo trials) -- and an insert beyond capacity
//     evicts the least recently used *cheap* entry first, touching the
//     expensive class only when no cheap entry is left. Within each class
//     the tiebreak is plain LRU.
//   * on disk: to_json()/load_json() (and the file helpers) persist the
//     store as a JSON document. Doubles travel through the exact
//     shortest-round-trip writer and parser (util/json.h), so a result
//     served from memory, recomputed, or reloaded from disk serializes
//     byte-identically -- the daemon's cold/warm/persisted response
//     identity rests on this.
//
// Recovery streams. load_json walks the document once with util/json's
// pull reader and decodes each entry straight into a parsed_store_entry:
// typed members, unknown members skipped, required members enforced. No
// document tree is built, so the memory a load needs is the file text
// plus the staged entries. The durable store's log replay decodes each
// record payload in place through the same entry decoder
// (parse_store_entry).
//
// A cached result is only valid under the run configuration it was computed
// with: the store_header captures (seed, mode, raw_bits, technology and
// budget fingerprints) and load refuses a file whose header differs, or
// whose format version is not the current one. Entries additionally carry
// their fingerprint, which load recomputes from the decoded request and
// verifies, so a file from an incompatible fingerprint scheme fails loudly.
// Every entry is staged before the store is touched: a load that throws
// leaves the previous contents intact.
//
// The store is not internally synchronized; the owning service serializes
// access (the daemon is a single request loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/design_point.h"
#include "core/sweep_engine.h"
#include "util/json.h"
#include "yield/trial_context.h"

namespace nwdec::service {

/// One fully-evaluated grid point, exactly as the service answers it: the
/// resolved request plus every reported figure and the trials actually
/// consumed (== request.mc_trials for fixed budgets, the adaptive
/// schedule's total under CI-width stopping).
struct stored_result {
  core::sweep_request request;        ///< resolved (nanowires, sigma filled)
  core::design_evaluation evaluation;
  std::size_t mc_trials_used = 0;
  /// Welford M2 accumulator at mc_trials_used: with (mean, trials) the full
  /// resumable state of the Monte-Carlo estimator, so a later request with
  /// a tighter CI target tops the point up (yield::mc_run_state contract)
  /// instead of recomputing from trial zero -- across requests and, since
  /// the store persists it, across process restarts.
  double mc_m2 = 0.0;
  /// The CI half-width target this entry's trial total is canonical for:
  /// its Monte-Carlo leg walked the adaptive policy's absolute rungs and
  /// stopped under this target (every earlier rung's half-width exceeded
  /// it), so any request with an equal-or-tighter target can serve or
  /// resume the entry and land bit-identical to a cold evaluation.
  /// 0 = the entry ran straight to its mc_trials cap (fixed budget).
  double budget_target = 0.0;

  /// True when this entry paid for Monte-Carlo trials -- the expensive
  /// eviction class. Analytic-only results cost microseconds to recompute;
  /// an MC result of T trials costs milliseconds to minutes, so the store
  /// sheds the cheap class first.
  bool expensive() const { return mc_trials_used > 0; }
};

/// Everything a cached result depends on besides the point fingerprint.
/// A persisted store is only loaded into a service with an identical
/// header; a mismatch throws rather than silently serving stale results.
struct store_header {
  std::uint64_t seed = 0;
  yield::mc_mode mode = yield::mc_mode::operational;
  std::size_t raw_bits = 0;
  /// technology_fingerprint() of the platform the results were computed
  /// on: every field of device::technology feeds the analytic yields,
  /// areas, and Monte-Carlo tables.
  std::uint64_t tech_fingerprint = 0;
  /// service::adaptive_options::fingerprint() of the budget policy the
  /// results were computed under; 0 = fixed trial budgets.
  std::uint64_t budget_fingerprint = 0;

  friend bool operator==(const store_header& a, const store_header& b) {
    return a.seed == b.seed && a.mode == b.mode && a.raw_bits == b.raw_bits &&
           a.tech_fingerprint == b.tech_fingerprint &&
           a.budget_fingerprint == b.budget_fingerprint;
  }
};

/// 64-bit fingerprint over every device::technology field (same splitmix64
/// cascade as core::fingerprint); two platforms compare equal exactly when
/// all their parameters do.
std::uint64_t technology_fingerprint(const device::technology& tech);

/// Aggregate counters for the stats endpoint and the CLI summary.
struct store_stats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t cheap_evictions = 0;  ///< evictions that hit the analytic class
  std::size_t mc_evictions = 0;     ///< evictions that had to drop MC work
};

/// Fingerprint-keyed LRU result cache with JSON persistence.
class result_store {
 public:
  explicit result_store(std::size_t capacity = 1 << 16);
  // The recency lists point into the index's nodes.
  result_store(const result_store&) = delete;
  result_store& operator=(const result_store&) = delete;

  std::size_t size() const { return cheap_.size + expensive_.size; }
  std::size_t capacity() const { return capacity_; }
  const store_stats& stats() const { return stats_; }
  /// Entries currently in the cheap (analytic-only) cost class.
  std::size_t cheap_size() const { return cheap_.size; }
  /// Entries currently in the expensive (Monte-Carlo) cost class.
  std::size_t expensive_size() const { return expensive_.size; }

  /// The cached result for the fingerprint, or nullptr on a miss. A hit
  /// refreshes the entry's recency. Results are immutable and shared: an
  /// answer holding the returned pointer keeps the result alive past its
  /// eviction without copying it.
  std::shared_ptr<const stored_result> find(std::uint64_t fingerprint);

  /// find() without side effects: no recency refresh, no hit/miss
  /// counting (the sweep service's insert policy inspects the resident
  /// entry without disturbing eviction order or stats). The pointer stays
  /// valid until the next insert/clear/load.
  const stored_result* peek(std::uint64_t fingerprint) const;

  /// Inserts (or refreshes) a result. Beyond capacity the least recently
  /// used entry of the *cheap* class is evicted; only when every remaining
  /// entry carries Monte-Carlo work does eviction fall back to the
  /// expensive class's LRU tail (see the header comment).
  void insert(std::uint64_t fingerprint, stored_result result);
  /// insert() of a result that is already shared (the sweep service hands
  /// the store and its response the same object).
  void insert(std::uint64_t fingerprint,
              std::shared_ptr<const stored_result> result);

  /// Drops every entry (counters are kept: they describe the lifetime).
  void clear();

  /// Serializes header + entries, least recently used first, so a
  /// load-reinsert pass reproduces the recency order exactly.
  std::string to_json(const store_header& header) const;

  /// Replaces the store's contents with a document produced by to_json(),
  /// each entry decoded as parse_store_entry does (see the header
  /// comment). Throws json_parse_error on malformed JSON,
  /// invalid_argument_error on a header or version mismatch with
  /// `expected`, not_found_error on a missing header member, and what
  /// parse_store_entry throws for an entry it refuses; the store is
  /// untouched when it throws.
  void load_json(std::string_view text, const store_header& expected);

  /// to_json() straight to a file; throws on I/O failure.
  void save_file(const std::string& path, const store_header& header) const;

 private:
  struct entry;
  /// An index node: the fingerprint and its entry. Nodes never move, so
  /// the recency lists thread through them.
  using slot = std::pair<const std::uint64_t, entry>;
  struct entry {
    std::shared_ptr<const stored_result> result;
    /// Global recency stamp (monotonic): both class lists are ordered by
    /// recency on their own, and merging on this stamp reconstructs the
    /// store-wide order for persistence.
    std::uint64_t touched = 0;
    slot* newer = nullptr;  ///< class list neighbour towards the front
    slot* older = nullptr;  ///< class list neighbour towards the back
  };
  /// One cost class's recency list, threaded through the index's own
  /// nodes (no separate list node per entry). front = most recent.
  struct lru_list {
    slot* newest = nullptr;
    slot* oldest = nullptr;
    std::size_t size = 0;

    void push_front(slot& node);
    void unlink(slot& node);
  };

  /// The class list an entry belongs in, by its cost.
  lru_list& list_for(const stored_result& result) {
    return result.expensive() ? expensive_ : cheap_;
  }
  /// Moves a resident node to the front of `home`, stamping its recency.
  void touch(slot& node, lru_list& from, lru_list& home);
  void evict_one();

  std::size_t capacity_;
  lru_list cheap_;      ///< analytic-only entries
  lru_list expensive_;  ///< Monte-Carlo entries
  std::unordered_map<std::uint64_t, entry> index_;
  std::uint64_t touch_counter_ = 0;
  store_stats stats_;
};

/// Serializes one stored result as the service's canonical point payload
/// (shared by the daemon responses and the cache file, so the two can never
/// drift apart).
void write_stored_result(json_writer& json, const stored_result& result);

/// Serializes one persisted store entry -- fingerprint + resume moments +
/// budget provenance wrapped around the canonical result payload. This is
/// the element format of BOTH the snapshot document's "entries" array and
/// the durable store's log-record payloads (service/durable_store.h), so
/// the two persistence paths can never drift apart.
void write_store_entry(json_writer& json, std::uint64_t fingerprint,
                       const stored_result& result);

/// One parsed persistence entry.
struct parsed_store_entry {
  std::uint64_t fingerprint = 0;
  stored_result result;
};

/// Inverse of write_store_entry over one complete document (a durable-store
/// log record payload), decoded straight from util/json's json_reader
/// without building a tree -- the same decoder load_json runs on every
/// snapshot entry. Members may come in any order and unknown ones are
/// skipped. Throws json_parse_error on malformed JSON (trailing content
/// included), not_found_error on a missing member, invalid_argument_error
/// on a mistyped one, on a Monte-Carlo block that write_stored_result
/// could not render (mean outside [0, 1], no trials), and on a recorded
/// fingerprint that differs from the one recomputed over the decoded
/// request (an incompatible fingerprint scheme or corruption).
parsed_store_entry parse_store_entry(std::string_view text);

/// mc_mode <-> protocol string ("window" / "operational").
const char* mc_mode_name(yield::mc_mode mode);
yield::mc_mode parse_mc_mode(const std::string& name);

}  // namespace nwdec::service
