// service::adaptive_budget: CI-width stopping for Monte-Carlo grid points
// (the ROADMAP's "confidence-driven adaptive trial budgets").
//
// A fixed trial count wastes work on easy points (yield near 0 or 1, where
// the estimate converges quickly) and underspends on points near the yield
// cliff. This policy runs each point in geometrically growing batches and
// stops as soon as the Wilson score interval on the running yield estimate
// is narrower than a target half-width (treating each trial's yield
// fraction as one observation -- conservative, because the trial, not the
// nanowire, is the independent unit).
//
// The policy is plain data. The sweep service hands each point of an
// evaluation its own core::mc_plan -- this policy with the point's
// target, or none for a fixed budget, plus any persisted progress to top
// up from -- and core::sweep_engine walks the rungs itself with
// next_batch, so one engine run serves points with different targets.
//
// Determinism: the schedule is a pure function of (policy, trials_done,
// running estimate), the engine's resumable Monte-Carlo makes any batch
// schedule bit-identical to one run of the same total, and the running
// estimate itself is bit-identical across thread counts -- so adaptive
// runs are bit-identical across thread counts too, and the trials-used
// number is reproducible. request.mc_trials stays the hard cap, so a
// point that never converges stops there.
#pragma once

#include "core/sweep_engine.h"

namespace nwdec::service {

/// The policy's fields, validation, store-header fingerprint and rung
/// schedule live with the engine that walks them.
using core::adaptive_options;
using core::next_batch;

}  // namespace nwdec::service
