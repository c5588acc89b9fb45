// The one fork-join helper of the library, and the one thread budget.
//
// thread_budget() is the only place nwdec asks the hardware how many
// threads it has; every "0 = hardware concurrency" setting resolves
// through it. parallel_for() is the only shard loop: the Monte-Carlo
// engine shards trial blocks with it and the design-space engine shards
// grid points with it.
//
// parallel_for runs up to `width` runners -- the calling thread is one of
// them, the rest are spawned for the call and joined before it returns --
// and every runner pulls the next index from one shared atomic cursor, so
// uneven work balances itself. The runner number handed to the body
// identifies the runner, not the index: a caller that needs per-runner
// state (reusable scratch buffers) sizes it with runner_count(), passes
// that count as the width, and indexes the state by runner, so no state is
// shared and nothing is allocated per index. A nested parallel_for from inside a body is fine: each call
// spawns its own runners.
//
// Exceptions: when a body throws, no runner takes a new index; once every
// runner has stopped, the first exception thrown is rethrown to the
// caller. An exception never escapes a spawned thread (which would call
// std::terminate).
#pragma once

#include <cstddef>
#include <functional>

namespace nwdec {

/// std::thread::hardware_concurrency(), never less than 1.
std::size_t thread_budget();

/// How many runners parallel_for(count, width, ...) uses: min(width,
/// count), with width 0 meaning thread_budget(); 0 only when count is 0.
std::size_t runner_count(std::size_t count, std::size_t width);

/// body(runner, index) for every index in [0, count), on
/// runner_count(count, width) runners (see the header comment).
using parallel_body =
    std::function<void(std::size_t runner, std::size_t index)>;

/// Runs `body` once per index in [0, count) on up to `width` runners (0 =
/// thread_budget()), the caller among them; returns after every runner
/// has stopped, rethrowing the first exception a body threw.
void parallel_for(std::size_t count, std::size_t width,
                  const parallel_body& body);

}  // namespace nwdec
