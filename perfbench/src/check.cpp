#include "check.h"

#include <exception>

#include "api/types.h"
#include "device/tech_params.h"
#include "util/json.h"

namespace perfbench {

using namespace nwdec;

crossbar::crossbar_spec daemon_spec() {
  crossbar::crossbar_spec spec;
  spec.raw_bits = std::size_t{16} * 1024 * 8;  // --raw-kb 16
  return spec;
}

std::vector<service::point_query> queries_of(const std::string& line) {
  const api::request parsed = api::parse_request_line(line);
  const auto& sweep = std::get<api::sweep_request>(parsed);
  std::vector<service::point_query> queries;
  for (const core::sweep_request& point : sweep.axes().expand()) {
    queries.push_back({point, sweep.min_half_width});
  }
  return queries;
}

std::string result_bytes(const std::string& response) {
  const std::string key = "\"result\":";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t k = begin; k < response.size(); ++k) {
    const char c = response[k];
    if (in_string) {
      if (c == '\\') {
        ++k;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return response.substr(begin, k + 1 - begin);
    }
  }
  return "";
}

std::string request_key(const std::string& line) {
  std::string key = line.substr(line.find(',') + 1);
  const std::string async = "\"async\":true,";
  if (const std::size_t at = key.find(async); at != std::string::npos) {
    key.erase(at, async.size());
  }
  return key;
}

void seed_store(const workload& load, const std::string& path) {
  const std::vector<std::string> snapshot = load.store_snapshot_lines();
  const std::vector<std::string> tail = load.store_wal_lines();
  if (snapshot.empty() && tail.empty()) return;
  service::sweep_service seeded(daemon_spec(), device::paper_technology(),
                                service::service_options{});
  service::durable_options durable;
  durable.fsync = false;
  seeded.enable_durability(path, durable);
  for (const std::string& line : snapshot) seeded.evaluate(queries_of(line));
  seeded.flush(path, false);  // compacts: snapshot written, log truncated
  for (const std::string& line : tail) seeded.evaluate(queries_of(line));
}

std::string check_structure(const request_spec& spec,
                            const std::string& payload) {
  try {
    const json_value root = json_parse(payload);
    const std::vector<json_value>& points = root.at("points").items();
    if (points.size() != spec.points) {
      return "grid of " + std::to_string(spec.points) + " points answered " +
             std::to_string(points.size());
    }
    for (const json_value& point : points) {
      for (const char* name : {"nanowire_yield", "crosspoint_yield"}) {
        const double value = point.at(name).as_number();
        if (!(value >= 0.0 && value <= 1.0)) {
          return std::string(name) + " outside [0, 1]";
        }
      }
      const bool has_mc = point.at("has_monte_carlo").as_bool();
      if (has_mc != (spec.trials > 0)) return "Monte-Carlo leg mismatch";
      if (!has_mc) continue;
      const double mc = point.at("mc_nanowire_yield").as_number();
      if (!(mc >= 0.0 && mc <= 1.0)) return "mc_nanowire_yield outside [0, 1]";
      if (point.at("mc_trials_used").as_number() !=
          static_cast<double>(spec.trials)) {
        return "mc_trials_used differs from the fixed budget";
      }
    }
  } catch (const std::exception& failure) {
    return std::string("unparsable payload: ") + failure.what();
  }
  return "";
}

reference::reference()
    : service_(daemon_spec(), device::paper_technology(),
               service::service_options{}) {}

const std::string& reference::payload(const std::string& line) {
  std::string key = request_key(line);
  auto found = by_request_.find(key);
  if (found == by_request_.end()) {
    std::string text = service::to_json(service_.evaluate(queries_of(line)),
                                        json_writer::style::compact);
    while (!text.empty() && text.back() == '\n') text.pop_back();
    found = by_request_.emplace(std::move(key), std::move(text)).first;
  }
  return found->second;
}

std::string check_answer(const request_spec& spec, const std::string& payload,
                         reference& expected) {
  if (payload.empty()) return "no result payload";
  std::string failure = check_structure(spec, payload);
  if (failure.empty() && payload != expected.payload(spec.line)) {
    failure = "payload differs from the in-process reference";
  }
  return failure;
}

}  // namespace perfbench
