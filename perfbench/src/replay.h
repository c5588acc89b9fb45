// perfbench traced layer replay: times the public entry point of every
// layer on a workload's own generated requests, in-process and single
// threaded, and attributes the time layer by layer.
//
// The replay stacks the calls outward from the kernel. For each request
// line it runs, as separate calls on replicas that start from the same
// seeded store:
//
//   api.request    api::dispatcher::handle_line (plus the status wait of an
//                  async submission)
//   service.call   sweep_service::try_serve_cached, then evaluate() when
//                  the probe declines (async lines skip the probe, as the
//                  scheduler does)
//   core.run       core::sweep_engine::run on the points the service
//                  computed
//   yield.mc       yield::monte_carlo_yield_resume per Monte-Carlo point
//   kernel.blocks  yield::trial_context::run_trial_block over the same
//                  trials, in default-size blocks
//
// Each span records its name, start, end, parent span and request id; they
// are kept in memory and written out when the replay ends. A layer's self
// time is its span minus the child spans it covers; where the program
// times a child inside the same call (job trace, eval_trace, engine
// report), that duration is recorded as a span too and used. The replay
// runs three times -- untraced, traced, untraced -- and reports the traced
// wall against the untraced ones as the tracing overhead.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the load generator measured on the live daemon for the replay:
/// transport round trips of the probe lines and scheduler counters.
struct daemon_observations {
  std::vector<request_spec> probe_lines;
  std::vector<double> tcp_rtt_us;   ///< per probe line, median of repeats
  std::vector<double> http_rtt_us;  ///< per probe line, median of repeats
  double queue_wait_ms = 0.0;       ///< median over the jobs' traces
  double coalesce_ratio = 0.0;      ///< sweep_jobs_batched / sweep_batches
  double inline_ratio = 0.0;        ///< answered_inline / sweeps admitted
  double shed = 0.0;
  double timed_out = 0.0;
};

/// Round trips each probe line is timed over (median taken), on the
/// daemon and in-process alike.
inline constexpr int kProbeRepeats = 5;

/// The replay set: the first requests of every client.
std::vector<request_spec> replay_lines(const workload& load);

/// Runs the replay. `seeded_store` is the workload's seeded snapshot path
/// ("" for memory-only workloads); replicas are copied into `scratch_dir`.
/// Spans go to `spans_path`; the per-layer self-time report goes to
/// `report`. Returns every per-layer metric.
std::vector<metric> run_replay(const workload& load,
                               const std::string& seeded_store,
                               const std::string& scratch_dir,
                               const daemon_observations& seen,
                               const std::string& spans_path,
                               std::ostream& report);

/// Median of `values` (0 for an empty set).
double median(std::vector<double> values);

}  // namespace perfbench
