// util::metrics: the process-wide observability registry -- named counters,
// gauges, and fixed-bucket histograms with a lock-free hot path.
//
// Registration (registry::counter / gauge / histogram) takes a mutex once
// and returns a stable reference; instrumented code holds that reference
// and every subsequent update is a handful of relaxed atomic operations --
// the same disarmed-cost discipline as util/failpoint, cheap enough to
// leave compiled into release builds permanently. Updates never touch any
// result payload: telemetry is strictly out-of-band, so the daemon's
// determinism contract (a payload is a pure function of (config, request))
// is unaffected by instrumentation.
//
// A metric is identified by (name, labels) where `labels` is a pre-rendered
// Prometheus label body like `path="avx2"` (empty for unlabeled metrics).
// Registering the same identity twice returns the same object; registering
// it as a different kind throws.
//
// snapshot() is safe to call while writers are updating: it reads every
// cell with relaxed loads, so each sampled value is some value the metric
// actually held (counters are monotone; a snapshot taken mid-traffic lands
// between the before and after totals). Samples are sorted by (name,
// labels), so two snapshots of identical state render byte-identically --
// the `metrics` protocol verb and the Prometheus exposition depend on this
// stable order.
//
// Rendering:
//   * write_json  -- the `metrics` verb's snapshot document (sorted keys,
//                    exact shortest-double numbers);
//   * to_prometheus -- the text exposition format (`# TYPE` per family,
//                    cumulative `_bucket{le=...}` / `_sum` / `_count`
//                    rows per histogram) served at GET /metrics on the
//                    daemon's --http-port gateway.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace nwdec::metrics {

/// Monotone event counter. inc() is one relaxed fetch_add.
class counter {
 public:
  void inc(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written-value gauge (queue depth, rates). set()/add() are single
/// relaxed atomic operations (add is a CAS loop on the double payload).
class gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets (ascending); one implicit +Inf bucket catches the rest.
/// observe() is a short linear scan plus three relaxed atomic updates --
/// suitable for per-request/per-run latencies, not per-trial inner loops.
class histogram {
 public:
  explicit histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (finite buckets then +Inf), relaxed reads.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< size()+1 cells
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The default latency bucket edges (seconds): 1 ms to 60 s, roughly
/// geometric -- wide enough for queue waits and whole-sweep walls alike.
const std::vector<double>& latency_buckets_seconds();

/// One sampled counter or gauge.
struct metric_sample {
  std::string name;
  std::string labels;  ///< pre-rendered label body ('' = unlabeled)
  double value = 0.0;
};

/// One sampled histogram (counts are per-bucket, not cumulative; the
/// Prometheus renderer accumulates).
struct histogram_sample {
  std::string name;
  std::string labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (+Inf last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A point-in-time view of every registered metric, sorted by (name,
/// labels) within each kind.
struct metrics_snapshot {
  std::vector<metric_sample> counters;
  std::vector<metric_sample> gauges;
  std::vector<histogram_sample> histograms;
};

/// Estimated quantile (q in [0, 1]) from a histogram sample by linear
/// interpolation inside the covering bucket; 0 when the histogram is
/// empty. The +Inf bucket clamps to the last finite edge.
double histogram_quantile(const histogram_sample& sample, double q);

class registry {
 public:
  registry();

  /// Registers (or finds) a metric. The returned reference is stable for
  /// the registry's lifetime; re-registering the same (name, labels) as a
  /// different kind throws invalid_argument_error. Histogram bounds are
  /// fixed by the first registration.
  counter& get_counter(const std::string& name,
                       const std::string& labels = "");
  gauge& get_gauge(const std::string& name, const std::string& labels = "");
  histogram& get_histogram(const std::string& name,
                           const std::string& labels = "",
                           const std::vector<double>& bounds =
                               latency_buckets_seconds());

  /// Consistent-enough snapshot (see the header comment), sorted.
  metrics_snapshot snapshot() const;

  /// Seconds since this registry was constructed (the process-uptime
  /// anchor for the global registry).
  double uptime_seconds() const;

  /// Zeroes every registered value (registrations stay). Tests only.
  void reset();

  /// The process-wide registry every instrumented subsystem writes to.
  static registry& global();

 private:
  enum class kind { counter, gauge, histogram };
  struct entry {
    kind type;
    std::unique_ptr<counter> as_counter;
    std::unique_ptr<gauge> as_gauge;
    std::unique_ptr<histogram> as_histogram;
  };

  mutable std::mutex mutex_;  ///< guards the map, never the hot updates
  std::map<std::pair<std::string, std::string>, entry> entries_;
  std::chrono::steady_clock::time_point created_;
};

/// Renders a snapshot as a JSON object with byte-stable key order:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {"buckets":
/// {...,"+Inf": n}, "count": n, "sum": x}}}. Labeled metrics key as
/// `name{labels}`.
void write_json(json_writer& json, const metrics_snapshot& snapshot);

/// The Prometheus text exposition (version 0.0.4) of a snapshot: one
/// `# TYPE` line per metric family, cumulative bucket rows per histogram.
std::string to_prometheus(const metrics_snapshot& snapshot);

}  // namespace nwdec::metrics
