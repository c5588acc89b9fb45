// Shared helpers for the figure-reproduction harnesses: uniform headers,
// paper-vs-measured formatting, optional CSV dumps, and the paired timing
// sampler the performance gates use.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/table.h"

namespace nwdec::bench {

/// Prints the standard harness banner.
inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "=== " << figure << ": " << what << " ===\n"
            << "    (Ben Jamaa et al., DAC'09 -- nwdec reproduction)\n\n";
}

/// "measured (paper X, delta%)" cell.
inline std::string versus(double measured, double paper, int decimals = 1) {
  const double delta = 100.0 * (measured - paper) / paper;
  return format_fixed(measured, decimals) + " (paper " +
         format_fixed(paper, decimals) + ", " +
         (delta >= 0 ? "+" : "") + format_fixed(delta, 1) + "%)";
}

/// Opens the CSV sink when a path was given.
inline std::optional<csv_writer> open_csv(
    const std::string& path, const std::vector<std::string>& header) {
  if (path.empty()) return std::nullopt;
  return csv_writer(path, header);
}

/// Median of `values` (0 when empty).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Rates of two workloads timed as interleaved pairs (see sample_pairs).
struct paired_rates {
  std::vector<double> a;      ///< units/s of the first workload, per pair
  std::vector<double> b;      ///< units/s of the second workload, per pair
  std::vector<double> ratio;  ///< b / a, per pair
  double median_ratio = 0.0;
};

/// Units/s of one sample: calls `workload` (which returns the units it
/// processed, e.g. trials) until at least `min_seconds` of wall time has
/// passed, so a short workload is never timed at clock resolution.
template <class Workload>
double sample_rate(double min_seconds, Workload&& workload) {
  const auto start = std::chrono::steady_clock::now();
  double units = 0.0;
  double seconds = 0.0;
  do {
    units += static_cast<double>(workload());
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (seconds < min_seconds);
  return units / seconds;
}

/// Times workloads `a` and `b` as `pairs` interleaved pairs (a, b, a, b,
/// ...), each sample taken by sample_rate. Both halves of a pair run back
/// to back, so drift that slows the box for a while (frequency scaling, a
/// noisy neighbour) hits both and cancels in their ratio; gate on
/// median_ratio, which one outlier pair cannot move.
template <class WorkloadA, class WorkloadB>
paired_rates sample_pairs(std::size_t pairs, double min_seconds,
                          WorkloadA&& a, WorkloadB&& b) {
  paired_rates rates;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    rates.a.push_back(sample_rate(min_seconds, a));
    rates.b.push_back(sample_rate(min_seconds, b));
    rates.ratio.push_back(rates.b.back() / rates.a.back());
  }
  rates.median_ratio = median(rates.ratio);
  return rates;
}

}  // namespace nwdec::bench
