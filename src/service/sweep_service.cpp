#include "service/sweep_service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "util/cpu.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/stats.h"

namespace nwdec::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Stable references into the process-wide metrics registry, resolved once:
// the per-evaluation updates below are relaxed atomics only. Hit/miss/
// top-up counters split by cost class (an analytic-only point is "cheap",
// a Monte-Carlo point "mc" -- the result_store's eviction classes).
struct service_metrics {
  metrics::counter& hits_cheap;
  metrics::counter& hits_mc;
  metrics::counter& misses_cheap;
  metrics::counter& misses_mc;
  metrics::counter& topups;
  metrics::counter& engine_runs;
  metrics::histogram& engine_seconds;

  static service_metrics& get() {
    static service_metrics instance = [] {
      metrics::registry& reg = metrics::registry::global();
      return service_metrics{
          reg.get_counter("nwdec_store_hits_total", "class=\"cheap\""),
          reg.get_counter("nwdec_store_hits_total", "class=\"mc\""),
          reg.get_counter("nwdec_store_misses_total", "class=\"cheap\""),
          reg.get_counter("nwdec_store_misses_total", "class=\"mc\""),
          reg.get_counter("nwdec_store_topups_total"),
          reg.get_counter("nwdec_engine_runs_total"),
          reg.get_histogram("nwdec_engine_run_seconds")};
    }();
    return instance;
  }
};

// Wilson half-width of a stored Monte-Carlo entry -- the same
// (successes, trials) formulation the engine's budget loop evaluates at
// each rung, so the serve/top-up decision below agrees bit for bit with
// the decision a cold rung walk would take at the same trial total.
double stored_half_width(const stored_result& entry) {
  const double trials = static_cast<double>(entry.mc_trials_used);
  return wilson_half_width(entry.evaluation.mc_nanowire_yield * trials,
                           trials);
}

yield::mc_run_state moments_of(const stored_result& entry) {
  return yield::mc_run_state::from_moments(entry.mc_trials_used,
                                           entry.evaluation.mc_nanowire_yield,
                                           entry.mc_m2);
}

// The serve decision of evaluate()'s pass 1 and of try_serve_cached's
// admission probe -- one predicate so the two can never drift. True when
// `hit` answers (resolved, target) as-is (see the header comment for the
// full provenance rules).
bool entry_serves(const stored_result& hit,
                  const core::sweep_request& resolved, double target) {
  if (resolved.mc_trials == 0) {
    return true;  // analytic results have no budget dimension
  }
  if (target == 0.0) {
    // Fixed budget: the answer is the state at exactly mc_trials.
    return hit.mc_trials_used == resolved.mc_trials;
  }
  // The entry walked the same rungs under an equal-or-looser target, so
  // every rung below its total is known to miss this target too: serve
  // when it already converged (or exhausted the cap).
  return hit.budget_target > 0.0 && hit.budget_target >= target &&
         (stored_half_width(hit) <= target ||
          hit.mc_trials_used == resolved.mc_trials);
}

// Whether a non-serving entry may RESUME (top up) instead of recomputing
// cold: a partial fixed-budget entry resumes to the cap; a same-rung
// entry resumes its walk. Weaker provenance recomputes.
bool entry_resumes(const stored_result& hit,
                   const core::sweep_request& resolved, double target) {
  if (resolved.mc_trials == 0) return false;
  if (target == 0.0) return true;
  return hit.budget_target > 0.0 && hit.budget_target >= target;
}

}  // namespace

sweep_service::sweep_service(crossbar::crossbar_spec spec,
                             device::technology tech, service_options options)
    : engine_(spec, tech),
      options_(options),
      store_(options.cache_capacity) {
  engine_options_.threads = options_.threads;
  engine_options_.seed = options_.seed;
  engine_options_.mode = options_.mode;
  if (options_.adaptive.has_value()) options_.adaptive->validate();
  // The rung schedule of per-query min_half_width targets: the service's
  // adaptive policy when one is configured, the documented defaults
  // otherwise. Each evaluate() gives every point its own budget from it.
  rung_policy_ = options_.adaptive.value_or(adaptive_options{});
}

store_header sweep_service::header() const {
  store_header header;
  header.seed = options_.seed;
  header.mode = options_.mode;
  header.raw_bits = engine_.spec().raw_bits;
  header.tech_fingerprint = technology_fingerprint(engine_.tech());
  header.budget_fingerprint =
      options_.adaptive.has_value() ? options_.adaptive->fingerprint() : 0;
  return header;
}

core::sweep_request sweep_service::resolve(core::sweep_request request) const {
  // The engine owns the resolution rules: fingerprints must describe the
  // request it will actually evaluate.
  return engine_.resolve(request);
}

sweep_response sweep_service::evaluate(const std::vector<point_query>& queries,
                                       const cancel_check_fn& check,
                                       eval_trace* trace) {
  NWDEC_EXPECTS(!queries.empty(), "a sweep request needs at least one point");
  if (check) check();
  // All telemetry below (spans + registry counters) observes the
  // evaluation without steering it; payloads stay pure functions of
  // (config, request) whether or not anyone is watching.
  eval_trace local_trace;
  if (trace == nullptr) trace = &local_trace;
  service_metrics& counters = service_metrics::get();

  sweep_response response;
  response.points.resize(queries.size());

  // One engine grid point per distinct (fingerprint, target), carrying its
  // Monte-Carlo budget as data: duplicate queries within one call share a
  // point and therefore compute once.
  struct slot_ref {
    std::size_t point = 0;
    point_source source = point_source::computed;
  };
  std::vector<core::sweep_request> grid;
  std::vector<core::mc_plan> mc_plans;
  std::vector<double> targets;  ///< per grid point; 0 = fixed-to-cap
  std::map<std::pair<std::uint64_t, double>, std::size_t> point_index;
  std::vector<std::optional<slot_ref>> pending(queries.size());

  // Pass 1 (locked): resolve + fingerprint every query, serve store
  // entries that already answer it, and plan the rest (see the header
  // comment for the serve / top-up / recompute rules).
  {
    const auto lookup_start = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < queries.size(); ++k) {
      NWDEC_EXPECTS(queries[k].min_half_width >= 0.0,
                    "'min_half_width' cannot be negative");
      const core::sweep_request resolved =
          engine_.resolve(queries[k].request);
      const std::uint64_t key = core::fingerprint(resolved);
      const double target =
          effective_target(resolved, queries[k].min_half_width);

      const std::shared_ptr<const stored_result> hit = store_.find(key);
      point_source source = point_source::computed;
      std::optional<yield::mc_run_state> resume;
      if (hit != nullptr) {
        if (entry_serves(*hit, resolved, target)) {
          (resolved.mc_trials == 0 ? counters.hits_cheap : counters.hits_mc)
              .inc();
          response.points[k] = {hit, point_source::cached};
          ++response.cached;
          continue;
        }
        if (entry_resumes(*hit, resolved, target)) {
          // Resumable: top up from the persisted (mean, trials, M2) --
          // bit-identical to the cold walk by the mc_run_state contract.
          resume = moments_of(*hit);
          source = point_source::topped_up;
        }
        // Weaker provenance (fixed-cap entry, or a looser recorded
        // target) falls through to a cold recompute: the payload must be
        // a pure function of (config, query), not of cache history.
      }
      if (source == point_source::topped_up) {
        counters.topups.inc();
      } else {
        (resolved.mc_trials == 0 ? counters.misses_cheap : counters.misses_mc)
            .inc();
      }
      const auto [it, inserted] =
          point_index.emplace(std::make_pair(key, target), grid.size());
      if (inserted) {
        core::mc_plan plan;
        if (target > 0.0) {
          plan.adaptive = rung_policy_;
          plan.adaptive->target_half_width = target;
        }
        plan.resume = resume;
        grid.push_back(resolved);
        mc_plans.push_back(std::move(plan));
        targets.push_back(target);
      }
      pending[k] = slot_ref{it->second, source};
    }
    trace->store_lookup_seconds = seconds_since(lookup_start);
  }

  // Pass 2 (unlocked): one engine run for every miss, whatever its budget
  // -- points shard across the engine's workers and share its
  // intermediate caches; the check rides into the run natively.
  if (!grid.empty()) {
    const auto run_start = std::chrono::steady_clock::now();
    const core::sweep_engine_report report =
        engine_.run(grid, engine_options_, mc_plans, check);
    const double run_seconds = seconds_since(run_start);
    trace->engine_seconds = run_seconds;
    trace->engine_points = grid.size();
    counters.engine_runs.inc();
    counters.engine_seconds.observe(run_seconds);

    std::vector<stored_result> fresh_results;
    fresh_results.reserve(grid.size());
    std::size_t trials_spent = 0;
    for (std::size_t p = 0; p < grid.size(); ++p) {
      const core::sweep_engine_entry& entry = report.entries[p];
      // Trials SPENT by this run: a topped-up point's total includes the
      // resumed trials, which were paid for (and counted) earlier.
      const std::optional<yield::mc_run_state>& resumed = mc_plans[p].resume;
      trials_spent += entry.mc_trials_used - (resumed ? resumed->trials() : 0);
      fresh_results.push_back(
          {entry.request, entry.evaluation, entry.mc_trials_used,
           entry.mc_m2, entry.evaluation.has_monte_carlo ? targets[p] : 0.0});
    }
    trace->mc_trials = trials_spent;
    if (trials_spent > 0) {
      metrics::registry::global()
          .get_counter("nwdec_mc_trials_total",
                       std::string("path=\"") +
                           cpu::simd_path_name(cpu::active_path()) + "\"")
          .inc(trials_spent);
    }

    // Pass 3 (locked): store the fresh results and fan them out to every
    // requesting slot; one stored_result per grid point is shared by the
    // store and the response, so the two payloads can never drift apart.
    const auto insert_start = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const stored_result>> produced;
    produced.reserve(grid.size());
    for (std::size_t p = 0; p < grid.size(); ++p) {
      produced.push_back(make_stored_result(std::move(fresh_results[p])));
      const stored_result& fresh = *produced.back();
      const std::uint64_t key = core::fingerprint(grid[p]);
      // Keep a dominating resident entry: one with at least as many
      // trials whose recorded target (when this point ran one) is equal-
      // or-tighter can serve or resume everything this result can, so
      // overwriting it would throw away paid-for Monte-Carlo trials
      // (alternating loose/tight targets on one point would otherwise
      // re-pay the tight rung walk every cycle).
      const stored_result* resident = store_.peek(key);
      const bool dominated =
          resident != nullptr &&
          resident->mc_trials_used >= fresh.mc_trials_used &&
          (targets[p] == 0.0 ||
           (resident->budget_target > 0.0 &&
            resident->budget_target <= targets[p]));
      if (!dominated) {
        store_.insert(key, produced.back());
        // Write-ahead record per fresh insert; the sync below makes the
        // whole pass durable with one fsync.
        if (durable_) {
          const auto append_start = std::chrono::steady_clock::now();
          durable_->append(key, fresh);
          trace->wal_append_seconds += seconds_since(append_start);
        }
      }
    }
    if (durable_) {
      const auto sync_start = std::chrono::steady_clock::now();
      durable_->sync();
      trace->wal_append_seconds += seconds_since(sync_start);
      if (durable_->wants_compaction()) {
        const auto rotate_start = std::chrono::steady_clock::now();
        durable_->compact(store_, header());
        trace->wal_rotation_seconds = seconds_since(rotate_start);
      }
    }
    for (std::size_t k = 0; k < queries.size(); ++k) {
      if (!pending[k].has_value()) continue;
      const slot_ref& ref = *pending[k];
      response.points[k] = {produced[ref.point], ref.source};
      if (ref.source == point_source::topped_up) {
        ++response.topped_up;
        ++topped_up_total_;
      } else {
        ++response.computed;
      }
    }
    trace->store_insert_seconds = seconds_since(insert_start);
  }
  return response;
}

sweep_response sweep_service::evaluate(
    const std::vector<core::sweep_request>& points, double min_half_width,
    const cancel_check_fn& check) {
  std::vector<point_query> queries;
  queries.reserve(points.size());
  for (const core::sweep_request& point : points) {
    queries.push_back({point, min_half_width});
  }
  return evaluate(queries, check);
}

sweep_response sweep_service::evaluate(const core::sweep_axes& axes,
                                       double min_half_width) {
  return evaluate(axes.expand(), min_half_width);
}

double sweep_service::effective_target(const core::sweep_request& resolved,
                                       double requested) const {
  double target = requested;
  if (target == 0.0 && options_.adaptive.has_value()) {
    target = options_.adaptive->target_half_width;
  }
  if (resolved.mc_trials == 0) target = 0.0;  // analytic-only point
  return target;
}

std::optional<sweep_response> sweep_service::try_serve_cached(
    const std::vector<point_query>& queries) {
  if (queries.empty()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(mutex_);
  // Phase 1: side-effect-free servability check over EVERY point. peek()
  // moves no recency and counts nothing, so declining here leaves the
  // store exactly as found -- the normal evaluate() path then records
  // its own misses, once, as always.
  for (const point_query& query : queries) {
    if (query.min_half_width < 0.0) return std::nullopt;
    const core::sweep_request resolved = engine_.resolve(query.request);
    const stored_result* hit = store_.peek(core::fingerprint(resolved));
    if (hit == nullptr ||
        !entry_serves(*hit, resolved,
                      effective_target(resolved, query.min_half_width))) {
      return std::nullopt;
    }
  }
  // Phase 2: serve through find(), so hit counters and LRU motion are
  // exactly what the normal path would have recorded for this sweep.
  // Same mutex hold as phase 1: no eviction can interleave.
  service_metrics& counters = service_metrics::get();
  sweep_response response;
  response.points.reserve(queries.size());
  for (const point_query& query : queries) {
    const core::sweep_request resolved = engine_.resolve(query.request);
    std::shared_ptr<const stored_result> hit =
        store_.find(core::fingerprint(resolved));
    NWDEC_EXPECTS(hit != nullptr,
                  "a peeked entry vanished under the service mutex");
    (resolved.mc_trials == 0 ? counters.hits_cheap : counters.hits_mc).inc();
    response.points.push_back({std::move(hit), point_source::cached});
    ++response.cached;
  }
  return response;
}

recovery_report sweep_service::enable_durability(const std::string& path,
                                                 durable_options options) {
  const std::lock_guard<std::mutex> lock(mutex_);
  NWDEC_EXPECTS(durable_ == nullptr, "durability is already enabled");
  auto durable = std::make_unique<durable_store>(path, options);
  recovery_report report = durable->open(store_, header());
  durable_ = std::move(durable);
  return report;
}

std::string sweep_service::snapshot_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return durable_ ? durable_->snapshot_path() : std::string();
}

flush_summary sweep_service::flush(const std::string& path, bool clear) {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_summary summary;
  summary.entries = store_.size();
  summary.persisted = !path.empty();
  // Persist strictly before dropping anything: a clear that ran first
  // would write an empty document over the results it was asked to
  // checkpoint.
  if (summary.persisted) {
    if (durable_ && path == durable_->snapshot_path()) {
      durable_->compact(store_, header());
    } else {
      store_.save_file(path, header());
    }
  }
  if (clear) {
    store_.clear();
    summary.cleared = true;
  }
  return summary;
}

service_stats sweep_service::stats() const {
  service_stats out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.entries = store_.size();
    out.capacity = store_.capacity();
    out.cheap_entries = store_.cheap_size();
    out.mc_entries = store_.expensive_size();
    out.store = store_.stats();
    out.topped_up = topped_up_total_;
  }
  out.engine = engine_.cache_stats();
  return out;
}

void write_payload(json_writer& json, const sweep_response& response) {
  json.begin_object().key("points").begin_array();
  for (const sweep_response_entry& entry : response.points) {
    write_stored_result(json, *entry.result);
  }
  json.end_array().end_object();
}

std::string to_json(const sweep_response& response, json_writer::style style) {
  json_writer json(style);
  write_payload(json, response);
  return json.str();
}

}  // namespace nwdec::service
