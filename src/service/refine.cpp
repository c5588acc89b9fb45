#include "service/refine.h"

#include "util/error.h"

namespace nwdec::service {

namespace {

// The cliff metric: the decode experiment's yield when Monte-Carlo ran,
// the analytic window model otherwise.
double cliff_yield(const stored_result& result) {
  return result.evaluation.has_monte_carlo
             ? result.evaluation.mc_nanowire_yield
             : result.evaluation.nanowire_yield;
}

}  // namespace

void refine_request::validate() const {
  NWDEC_EXPECTS(sigma_low >= 0.0, "sigma_low cannot be negative");
  NWDEC_EXPECTS(sigma_high > sigma_low,
                "the sigma interval must satisfy sigma_low < sigma_high");
  NWDEC_EXPECTS(yield_threshold > 0.0 && yield_threshold < 1.0,
                "yield_threshold must lie in (0, 1)");
  NWDEC_EXPECTS(resolution > 0.0, "resolution must be positive");
  if (defects.has_value()) defects->validate();
}

refine_result refine(sweep_service& service, const refine_request& request,
                     const std::function<void(std::size_t)>& on_progress,
                     const cancel_check_fn& check) {
  request.validate();

  const auto probe = [&](double sigma, refine_result& out) {
    core::sweep_request point;
    point.design = request.design;
    point.nanowires = request.nanowires;
    point.sigma_vt = sigma;
    point.mc_trials = request.mc_trials;
    point.defects = request.defects;
    const sweep_response response =
        service.evaluate(std::vector<core::sweep_request>{point}, 0.0, check);
    ++out.evaluations;
    out.cached += response.cached;
    out.trace.push_back(*response.points.front().result);
    if (on_progress) on_progress(out.evaluations);
    return cliff_yield(out.trace.back());
  };

  refine_result result;
  double low = request.sigma_low;
  double high = request.sigma_high;
  const double yield_at_low = probe(low, result);
  const double yield_at_high = probe(high, result);

  result.sigma_low = low;
  result.sigma_high = high;
  result.yield_low = yield_at_low;
  result.yield_high = yield_at_high;
  // The cliff is only inside the interval when the threshold separates the
  // endpoints; otherwise report the (evaluated) endpoints unbracketed.
  if (yield_at_low < request.yield_threshold ||
      yield_at_high >= request.yield_threshold) {
    return result;
  }

  double yield_low = yield_at_low;
  double yield_high = yield_at_high;
  while (high - low > request.resolution) {
    const double mid = 0.5 * (low + high);
    // Floating-point floor: the midpoint can collide with an endpoint once
    // the interval is a few ulps wide; stop rather than loop forever.
    if (mid <= low || mid >= high) break;
    const double yield_mid = probe(mid, result);
    if (yield_mid >= request.yield_threshold) {
      low = mid;
      yield_low = yield_mid;
    } else {
      high = mid;
      yield_high = yield_mid;
    }
  }

  result.bracketed = true;
  result.sigma_low = low;
  result.sigma_high = high;
  result.yield_low = yield_low;
  result.yield_high = yield_high;
  return result;
}

void write_payload(json_writer& json, const refine_result& result) {
  json.begin_object()
      .field("bracketed", result.bracketed)
      .field("sigma_low", result.sigma_low)
      .field("sigma_high", result.sigma_high)
      .field("yield_low", result.yield_low)
      .field("yield_high", result.yield_high);
  json.key("trace").begin_array();
  for (const stored_result& probe : result.trace) {
    write_stored_result(json, probe);
  }
  json.end_array().end_object();
}

std::string to_json(const refine_result& result, json_writer::style style) {
  json_writer json(style);
  write_payload(json, result);
  return json.str();
}

}  // namespace nwdec::service
