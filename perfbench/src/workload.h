// perfbench workloads: seeded request generators for the three traffic
// mixes the benchmark drives through nwdec_service.
//
// Every request line is a pure function of (workload, seed, client,
// index): the same seed always yields the same bytes, and the daemon sees
// only these generated lines. The seed also fixes the store a workload
// starts from (warm_http, durable_ingest), which the benchmark builds
// in-process before the daemon launches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class workload_kind { fig78_cold, warm_http, durable_ingest };

/// The transport and loop shape of one workload's clients.
struct workload_shape {
  const char* name = "";
  std::size_t clients = 1;
  bool http = false;       ///< POST /v1/rpc keep-alive (else TCP NDJSON)
  bool subscribe = false;  ///< async submit, then subscribe to the job
  bool durable = false;    ///< daemon runs with --cache on a seeded store
};

/// One generated request plus what the checker and the counters need.
struct request_spec {
  std::string line;             ///< the exact NDJSON bytes sent
  std::size_t points = 0;       ///< grid size of the sweep
  std::size_t trials = 0;       ///< fixed MC budget of every point
  std::size_t fresh_points = 0; ///< points guaranteed to miss the store
};

/// Parses a workload name; throws std::invalid_argument on an unknown one.
workload_kind parse_workload(const std::string& name);
const workload_shape& shape_of(workload_kind kind);

class workload {
 public:
  workload(workload_kind kind, std::uint64_t seed);

  workload_kind kind() const { return kind_; }
  std::uint64_t seed() const { return seed_; }
  const workload_shape& shape() const { return shape_of(kind_); }

  /// Request `index` of client `client` (ids are unique across clients).
  request_spec request(std::size_t client, std::size_t index) const;

  /// Sweep lines whose evaluation builds the seeded store: `snapshot`
  /// lines are compacted into the snapshot, `wal` lines stay in the
  /// write-ahead log tail. Both empty for memory-only workloads.
  std::vector<std::string> store_snapshot_lines() const;
  std::vector<std::string> store_wal_lines() const;

 private:
  request_spec fig78(std::size_t id) const;
  request_spec warm(std::uint64_t draw, std::size_t id) const;
  request_spec ingest(std::uint64_t draw, std::size_t id) const;

  workload_kind kind_;
  std::uint64_t seed_;
  std::uint64_t offset_;  ///< seed-derived shift of the unique sigma ladder
};

/// splitmix64: the generator's only source of randomness.
std::uint64_t mix64(std::uint64_t value);

}  // namespace perfbench
