// The tree-based decode of the result-store persistence formats:
// json_parse, then member lookups on the json_value. The library decodes
// the same formats by streaming (service::read_store_entry and
// result_store::load_json); this slower, obviously-correct path stays here
// as the oracle the streaming decoder is checked against.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "codes/code_space.h"
#include "core/sweep_engine.h"
#include "service/result_store.h"
#include "util/error.h"
#include "util/json.h"

namespace nwdec::service {

namespace oracle_detail {

inline std::uint64_t parse_u64(const json_value& node,
                               const std::string& name) {
  const std::string& text = node.at(name).as_string();
  NWDEC_EXPECTS(!text.empty() &&
                    text.find_first_not_of("0123456789") == std::string::npos,
                "field '" + name + "' is not a decimal u64 string");
  return std::stoull(text);
}

inline double get_number(const json_value& node, const std::string& name) {
  return node.at(name).as_number();
}

inline std::size_t get_size(const json_value& node, const std::string& name) {
  const double value = node.at(name).as_number();
  NWDEC_EXPECTS(value >= 0.0 && std::floor(value) == value &&
                    value <= 9007199254740992.0,  // 2^53
                "field '" + name + "' is not a non-negative integer");
  return static_cast<std::size_t>(value);
}

}  // namespace oracle_detail

/// Inverse of write_stored_result over a parsed tree; throws on missing or
/// mistyped fields.
inline stored_result parse_stored_result(const json_value& node) {
  using oracle_detail::get_number;
  using oracle_detail::get_size;
  stored_result result;
  core::sweep_request& request = result.request;
  request.design.type = codes::parse_code_type(node.at("code").as_string());
  request.design.radix = static_cast<unsigned>(get_size(node, "radix"));
  request.design.length = get_size(node, "length");
  request.nanowires = get_size(node, "nanowires");
  request.sigma_vt = get_number(node, "sigma_vt");
  request.mc_trials = get_size(node, "mc_trials");
  if (node.at("has_defects").as_bool()) {
    request.defects = fab::defect_params{
        get_number(node, "broken_probability"),
        get_number(node, "bridge_probability")};
  }

  core::design_evaluation& e = result.evaluation;
  e.point = request.design;
  e.code_space = get_size(node, "omega");
  e.fabrication_steps = get_size(node, "phi");
  e.average_variability = get_number(node, "average_variability");
  e.contact_groups = get_size(node, "contact_groups");
  e.expected_discarded = get_number(node, "expected_discarded");
  e.nanowire_yield = get_number(node, "nanowire_yield");
  e.crosspoint_yield = get_number(node, "crosspoint_yield");
  e.effective_bits = get_number(node, "effective_bits");
  e.total_area_nm2 = get_number(node, "total_area_nm2");
  e.bit_area_nm2 = get_number(node, "bit_area_nm2");
  e.has_monte_carlo = node.at("has_monte_carlo").as_bool();
  if (e.has_monte_carlo) {
    e.mc_nanowire_yield = get_number(node, "mc_nanowire_yield");
    e.mc_ci_low = get_number(node, "mc_ci_low");
    e.mc_ci_high = get_number(node, "mc_ci_high");
    result.mc_trials_used = get_size(node, "mc_trials_used");
  }
  return result;
}

/// Inverse of write_store_entry over a parsed tree, fingerprint verified.
inline parsed_store_entry oracle_parse_store_entry(const json_value& node) {
  parsed_store_entry entry;
  entry.fingerprint = oracle_detail::parse_u64(node, "fingerprint");
  entry.result = parse_stored_result(node.at("result"));
  entry.result.mc_m2 = oracle_detail::get_number(node, "m2");
  entry.result.budget_target = oracle_detail::get_number(node, "budget_target");
  const std::uint64_t recomputed = core::fingerprint(entry.result.request);
  NWDEC_EXPECTS(entry.fingerprint == recomputed,
                "store entry fingerprint mismatch (incompatible "
                "fingerprint scheme or corrupted file)");
  return entry;
}

/// The entries of a result_store::to_json document, in document order,
/// after the version and header checks load_json performs.
inline std::vector<parsed_store_entry> oracle_load_snapshot(
    const std::string& text, const store_header& expected) {
  using oracle_detail::get_size;
  using oracle_detail::parse_u64;
  const json_value document = json_parse(text);
  NWDEC_EXPECTS(document.find("nwdec_result_store") != nullptr &&
                    get_size(document, "nwdec_result_store") == 2,
                "not a result-store document (or an unknown format version)");
  store_header header;
  header.seed = parse_u64(document, "seed");
  header.mode = parse_mc_mode(document.at("mode").as_string());
  header.raw_bits = get_size(document, "raw_bits");
  header.tech_fingerprint = parse_u64(document, "tech_fingerprint");
  header.budget_fingerprint = parse_u64(document, "budget_fingerprint");
  if (!(header == expected)) {
    throw invalid_argument_error("result-store header mismatch");
  }
  std::vector<parsed_store_entry> entries;
  for (const json_value& entry : document.at("entries").items()) {
    entries.push_back(oracle_parse_store_entry(entry));
  }
  return entries;
}

}  // namespace nwdec::service
