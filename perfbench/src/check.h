// perfbench in-process service helpers: request expansion, the seeded
// stores, and the output check. Every answered sweep is held to the
// determinism contract -- its "result" payload must equal, byte for byte,
// what an in-process service::sweep_service renders for the same request
// under the daemon's configuration -- and to structural invariants (grid
// size, yields in [0, 1], the fixed budget actually spent).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "service/sweep_service.h"
#include "workload.h"

namespace perfbench {

/// The platform nwdec_service serves with its default flags.
nwdec::crossbar::crossbar_spec daemon_spec();

/// The sweep points of one request line, as the daemon's scheduler
/// expands them.
std::vector<nwdec::service::point_query> queries_of(const std::string& line);

/// The raw bytes of a response line's top-level "result" object; empty
/// when the line carries none.
std::string result_bytes(const std::string& response);

/// The part of a request line that determines its payload: everything
/// but the leading "id" member and the async flag.
std::string request_key(const std::string& line);

/// Builds the workload's seeded store at `path` (snapshot, plus the
/// write-ahead log tail at `path` + ".log") with an in-process service
/// under the daemon's configuration. No-op for memory-only workloads.
void seed_store(const workload& load, const std::string& path);

/// Structural invariants of one payload; empty when they hold, else why.
std::string check_structure(const request_spec& spec,
                            const std::string& payload);

/// In-process reference renderings, memoized per request content.
class reference {
 public:
  reference();
  /// The payload the daemon must answer for `line` (its "id" and "async"
  /// members do not change the payload).
  const std::string& payload(const std::string& line);

 private:
  nwdec::service::sweep_service service_;
  std::map<std::string, std::string> by_request_;
};

/// Structure plus byte equality with the reference; empty when it passes.
std::string check_answer(const request_spec& spec, const std::string& payload,
                         reference& expected);

}  // namespace perfbench
